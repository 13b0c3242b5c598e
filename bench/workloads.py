"""Workload definitions: seeded inputs, op kinds, and the calls each op makes.

Every op is a closed-loop call (one client, the next op starts when the
previous one returns) into ``lueders.cli.main`` in this process, with stdout
captured.  Inputs for the ``cli-*`` workloads are built here with plain NumPy
from a known joint spectrum, so the expected outputs follow from the
construction and not from a run of the code under test.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("cli-commuting", "cli-noncommuting", "suite-full", "io-large")

# Why each workload exists (also in BENCHMARK.json):
# cli-commuting     commutant/nullspace dominate; a commuting-only fast path shows here.
# cli-noncommuting  never reaches joint_eigenspaces; a commuting-only change must not move it.
# suite-full        thousands of d <= 8 calls with cold pool caches, as each `lueders suite` has.
# io-large          d = 64 gen/validate: JSON emit/parse and pairwise commutators; no superoperator.

CLI_GRID = ((8, 3), (8, 8), (16, 3), (16, 8), (24, 3))
IO_COUNTS = (8, 32)
IO_DIM = 64
UNIT_FRACTION = 0.5
# Minimum Euclidean distance between generated eigenvalue tuples: keeps every
# joint block one-dimensional, far above the package's 1e-9 cluster gap.
TUPLE_SEPARATION = 0.05
# Non-commuting draws must reach this commutator norm (as `lueders gen` does).
NONCOMMUTING_FLOOR = 0.01


def _size_class(d: int) -> str:
    return {8: "small", 16: "mid", 24: "large"}[d]


@dataclass
class OpKind:
    """One repeatable op: a fixed input taken through a fixed list of commands."""

    name: str
    size: str  # "small" | "mid" | "large": the size class it is reported under
    commands: list  # list of argv lists for lueders.cli.main
    expected: dict
    check: object  # callable(kind, results) -> list[str] of problems
    state: dict = field(default_factory=dict)  # oracle memory across repeats


@dataclass
class Workload:
    name: str
    kinds: list
    before_op: object = None  # untimed hook run before every op
    warmup: OpKind | None = None  # untimed first op; defaults to the first kind

    def warmup_kind(self) -> OpKind:
        return self.warmup or self.kinds[0]

    def schedule(self) -> list:
        """One pass: every larger kind once, each preceded by one round of the small kinds.

        Spreading the cheap kinds over the whole pass lets their medians
        sample the same stretch of machine time as the expensive kinds.
        """
        small = [k for k in self.kinds if k.size == "small"]
        out = []
        for kind in self.kinds:
            if kind.size != "small":
                out += small + [kind]
        return out


# ---------------------------------------------------------------------------
# construction of effect sets with known spectra


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _joint_spectra(n: int, radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One nonnegative eigenvalue tuple per basis vector, of norm radii[a], pairwise separated."""
    tuples: list[np.ndarray] = []
    for _ in range(100_000):
        if len(tuples) == len(radii):
            return np.array(tuples)
        g = np.abs(rng.standard_normal(n))
        lam = g / np.linalg.norm(g) * radii[len(tuples)]
        if all(np.linalg.norm(lam - t) >= TUPLE_SEPARATION for t in tuples):
            tuples.append(lam)
    raise RuntimeError("could not draw separated joint spectra")


def _max_commutator(mats) -> float:
    best = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            best = max(best, float(np.linalg.svd(c, compute_uv=False)[0]))
    return best


def build_commuting(d: int, n: int, subnormalized: bool, rng: np.random.Generator):
    """Effects U·diag(λᵢ)·U† with joint tuples on the unit sphere (or inside it).

    Returns the matrices and what the construction implies about them.
    """
    k_unit = math.floor(UNIT_FRACTION * d + 0.5) if subnormalized else d
    u = _haar_unitary(d, rng)
    radii = np.ones(d)
    radii[k_unit:] = rng.uniform(0.3, 0.95, size=d - k_unit)
    tuples = _joint_spectra(n, radii, rng)
    mats = [_hermitize((u * tuples[:, i]) @ u.conj().T) for i in range(n)]
    # Φ(X) + X = I is diagonal in the joint basis: x_a = 1 / (1 + r_a²).
    x = 1.0 / (1.0 + radii**2)
    expected = {
        "d": d,
        "n": n,
        "commuting": True,
        "normalization": "subnormalized" if subnormalized else "resolution",
        "theorem": "3.2" if subnormalized else "3.1",
        # Distinct tuples: the joint blocks are the d basis vectors, the
        # commutant is the diagonal algebra, and the fixed points are the
        # diagonal operators on the unit-radius vectors.
        "fixed_dim": k_unit,
        "commutant_dim": d,
        "joint_block_dims": [1] * d,
        "half_identity_distance": float(np.sqrt(np.sum((x - 0.5) ** 2))),
        "witness_eigenvalues": tuples[:, 0],
        "witness_eigenvectors": u,
    }
    return mats, expected


def build_noncommuting(d: int, n: int, rng: np.random.Generator):
    """n-1 random effects scaled to Σ Eᵢ² ≤ 0.95·I, closed by √(I - Σ Eᵢ²)."""
    for _ in range(64):
        bases = [_haar_unitary(d, rng) for _ in range(n - 1)]
        spectra = [rng.uniform(0.0, 1.0, size=d) for _ in range(n - 1)]
        base = [_hermitize((v * s) @ v.conj().T) for v, s in zip(bases, spectra)]
        mu = float(np.linalg.eigvalsh(_hermitize(sum(b @ b for b in base)))[-1])
        c = math.sqrt(0.95 / mu)
        scaled = [c * b for b in base]
        w, v = np.linalg.eigh(_hermitize(np.eye(d) - sum(e @ e for e in scaled)))
        closer = _hermitize((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        mats = scaled + [closer]
        max_comm = _max_commutator(mats)
        if max_comm >= NONCOMMUTING_FLOOR:
            break
    else:
        raise RuntimeError("could not reach the non-commutation floor")
    expected = {
        "d": d,
        "n": n,
        "commuting": False,
        "normalization": "resolution",
        "theorem": "3.1",
        # Generic effects generate the full matrix algebra: commutant = ℂ·I.
        "fixed_dim": 1,
        "commutant_dim": 1,
        "max_pairwise_commutator_norm": max_comm,
        "half_identity_distance": 0.0,
        "witness_eigenvalues": c * spectra[0],
        "witness_eigenvectors": bases[0],
    }
    return mats, expected


def _matrix_lists(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write_effect_set(path: Path, mats, flavor: str) -> None:
    doc = {
        "d": mats[0].shape[0],
        "n": len(mats),
        "flavor": flavor,
        "effects": [_matrix_lists(m) for m in mats],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _write_operator(path: Path, m: np.ndarray) -> None:
    path.write_text(json.dumps({"d": m.shape[0], "matrix": _matrix_lists(m)}), encoding="utf-8")


# ---------------------------------------------------------------------------
# workloads


def _cli_kind(workdir: Path, seed: int, index: int, flavor: str, d: int, n: int) -> OpKind:
    rng = np.random.default_rng([seed, index])
    if flavor == "noncommuting-resolution":
        mats, expected = build_noncommuting(d, n, rng)
    else:
        mats, expected = build_commuting(d, n, flavor == "commuting-subnormalized", rng)
    operator = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    expected["witness_operator"] = operator
    name = f"{flavor}.d{d}.n{n}"
    set_path = workdir / f"{name}.json"
    op_path = workdir / f"{name}.operator.json"
    _write_effect_set(set_path, mats, flavor)
    _write_operator(op_path, operator)
    commands = [
        ["verify", str(set_path)],
        ["analyze", str(set_path)],
        ["nagy", str(set_path)],
        ["witness", str(set_path), str(op_path)],
    ]
    return OpKind(name, _size_class(d), commands, expected, oracle.check_cli)


def _cli_workload(name: str, flavors, seed: int, workdir: Path) -> Workload:
    kinds = []
    for d, n in CLI_GRID:
        for flavor in flavors:
            kinds.append(_cli_kind(workdir, seed, len(kinds), flavor, d, n))
    return Workload(name, kinds)


def _io_workload(seed: int, workdir: Path) -> Workload:
    kinds = []
    for n in IO_COUNTS:
        for flavor in ("commuting-resolution", "commuting-subnormalized", "noncommuting-resolution"):
            gen_seed = seed * 1000 + len(kinds)
            path = workdir / f"{flavor}.d{IO_DIM}.n{n}.json"
            gen = ["gen", "--flavor", flavor, "--d", str(IO_DIM), "--n", str(n),
                   "--seed", str(gen_seed), "--out", str(path)]
            meta = {"flavor": flavor, "seed": gen_seed}
            if flavor == "commuting-subnormalized":
                gen += ["--unit-fraction", str(UNIT_FRACTION)]
                meta["unit_fraction"] = UNIT_FRACTION
            expected = {
                "d": IO_DIM,
                "n": n,
                "path": path,
                "meta": meta,
                "commuting": flavor.startswith("commuting"),
                "normalization": "subnormalized" if "subnormalized" in flavor else "resolution",
            }
            size = "small" if n == IO_COUNTS[0] else "large"
            kinds.append(OpKind(f"{flavor}.d{IO_DIM}.n{n}", size,
                                [gen, ["validate", str(path)]], expected, oracle.check_io))
    return Workload("io-large", kinds)


def _clear_suite_caches() -> None:
    """Drop the suite's memoized instance pools, so every suite op starts cold."""
    from lueders import suite

    for obj in vars(suite).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def _suite_workload() -> Workload:
    # The suite's instance pools are pinned by the program; the seed does not
    # change them.  The quick scale is only the warm-up.
    full = OpKind("suite.full", "large", [["suite"]], oracle.SUITE_EXPECTED["full"], oracle.check_suite)
    quick = OpKind("suite.quick", "small", [["suite", "--quick"]],
                   oracle.SUITE_EXPECTED["quick"], oracle.check_suite)
    return Workload("suite-full", [full], before_op=_clear_suite_caches, warmup=quick)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from its seed into workdir."""
    if name == "cli-commuting":
        return _cli_workload(name, ("commuting-resolution", "commuting-subnormalized"), seed, workdir)
    if name == "cli-noncommuting":
        return _cli_workload(name, ("noncommuting-resolution",), seed, workdir)
    if name == "suite-full":
        return _suite_workload()
    if name == "io-large":
        return _io_workload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running one op


def run_op(workload: Workload, kind: OpKind, op_id: int, tracer=None):
    """Run every command of one op; return (seconds, problems).

    Only the calls into lueders.cli.main are timed; capturing output and the
    oracle check run outside the timed region.
    """
    from lueders import cli

    if workload.before_op is not None:
        workload.before_op()
    gc.collect()  # garbage left by the previous op is not this op's cost
    results = []
    elapsed = 0.0
    for argv in kind.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", op_id, cli.main, argv)
            elapsed += time.perf_counter() - t0
        results.append((argv[0], rc, buf.getvalue()))
    return elapsed, kind.check(kind, results)
