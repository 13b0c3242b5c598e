"""Acceptance battery: ten numbered criteria run at full or quick scale.

Each criterion exercises one guaranteed property of the package over seeded
instance pools and reports pass/fail with diagnostic details.  All seeds are
fixed constants, so every run sees the same instances.  Oracles used inside a
criterion (brute-force eigenprojector blocks, direct reconstruction checks)
are computed independently of the code path under test.

C1   commuting resolutions: fixed-point space equals the commutant
C2   commuting subnormalized sets: fixed-point space equals the compressed commutant
C3   non-commuting resolutions: the same fixed-point identity still holds
C4   the complete-disturbance equation has the unique solution I/2 on resolutions
C5   channel norm: ‖Φ(I)‖ equals ‖F‖ exactly and random probes never exceed it
C6   witness search matches a brute-force eigenprojector oracle
C7   the contractive block construction achieves its explicit bound
C8   commutant dimension equals the sum of squared joint-block dimensions
C9   a state is fixed iff it commutes with every effect (equivalence sweep)
C10  kernel health: eigendecomposition reconstruction and window partitions
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matkernel as mk
from .effects import (
    EffectSet,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
    spectral_window,
    validate_effect,
)
from .errors import CommutesNoWitness
from .operation import (
    LuedersOperation,
    channel_norm,
    commutant,
    is_undisturbed_state,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from .rng import philox_generator
from .witness import build_contractive_block, contraction_bound, contraction_threshold, witness_search

__all__ = [
    "CRITERIA",
    "FULL",
    "QUICK",
    "CriterionResult",
    "Scale",
    "SuiteReport",
    "run_criterion",
    "run_suite",
]


@dataclass(frozen=True)
class Scale:
    """Pool sizes for one battery run.  FULL matches the pinned acceptance scale."""

    name: str
    res_dims: tuple[int, ...]
    res_counts: tuple[int, ...]
    res_seeds: int
    sub_dims: tuple[int, ...]
    sub_counts: tuple[int, ...]
    sub_seeds: int
    nc_dims: tuple[int, ...]
    nc_counts: tuple[int, ...]
    nc_seeds: int
    norm_probes: int
    witness_cases: int
    contraction_cases: int
    density_trials: int
    eig_trials: int
    window_effects: int


FULL = Scale(
    name="full",
    res_dims=(2, 3, 4, 5, 6, 7, 8),
    res_counts=(1, 2, 3, 4, 5),
    res_seeds=6,
    sub_dims=(2, 3, 4, 5, 6, 7),
    sub_counts=(1, 2, 3, 4),
    sub_seeds=2,
    nc_dims=(2, 3, 4, 5, 6, 7, 8),
    nc_counts=(3, 4, 5),
    nc_seeds=5,
    norm_probes=200,
    witness_cases=100,
    contraction_cases=50,
    density_trials=500,
    eig_trials=1000,
    window_effects=24,
)

QUICK = Scale(
    name="quick",
    res_dims=(2, 3, 4),
    res_counts=(1, 2, 3),
    res_seeds=3,
    sub_dims=(2, 3, 4),
    sub_counts=(1, 2),
    sub_seeds=1,
    nc_dims=(2, 3, 4),
    nc_counts=(3,),
    nc_seeds=2,
    norm_probes=50,
    witness_cases=20,
    contraction_cases=8,
    density_trials=60,
    eig_trials=120,
    window_effects=8,
)


@dataclass(frozen=True)
class CriterionResult:
    """Plain-data outcome of one criterion; details keep their insertion order."""

    id: str
    description: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class SuiteReport:
    """Plain-data outcome of one run, criteria in C1…C10 order."""

    scale: str
    results: tuple[CriterionResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# seeded pools (cached per scale; seeds are fixed offsets so pools never move)


def _draw(generate, dims, counts, seeds: int, first_seed: int, *args) -> tuple[EffectSet, ...]:
    """generate(d, n, seed, *args) for each d, then each n, then `seeds` consecutive seeds from first_seed."""
    seed = itertools.count(first_seed)
    return tuple(generate(d, n, next(seed), *args) for d in dims for n in counts for _ in range(seeds))


@lru_cache(maxsize=None)
def _resolution_pool(scale: Scale) -> tuple[EffectSet, ...]:
    return _draw(generate_commuting_resolution, scale.res_dims, scale.res_counts, scale.res_seeds, 101)


# Share of each subnormalized pool set's joint basis kept at radius 1, the same at every scale.
UNIT_FRACTIONS = (0.0, 0.25, 0.5)


@lru_cache(maxsize=None)
def _subnormalized_pool(scale: Scale) -> tuple[tuple[float, EffectSet], ...]:
    # One seed run from 3001 across all unit fractions.
    sizes = (scale.sub_dims, scale.sub_counts, scale.sub_seeds)
    run = len(scale.sub_dims) * len(scale.sub_counts) * scale.sub_seeds
    return tuple(
        (uf, es)
        for i, uf in enumerate(UNIT_FRACTIONS)
        for es in _draw(generate_commuting_subnormalized, *sizes, 3001 + i * run, uf)
    )


@lru_cache(maxsize=None)
def _noncommuting_pool(scale: Scale) -> tuple[EffectSet, ...]:
    return _draw(generate_noncommuting_resolution, scale.nc_dims, scale.nc_counts, scale.nc_seeds, 5001)


def _random_effect(d: int, rng: np.random.Generator):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.0, 1.0, size=d)
    mat = (q * w) @ q.conj().T
    return validate_effect((mat + mat.conj().T) / 2)


# ---------------------------------------------------------------------------
# criteria


def _fixed_point_criterion(cid: str, description: str, verify, cases, **extra) -> CriterionResult:
    """One criterion from a fixed-point verifier run over (set, trivial) pairs.

    A set flagged trivial must also have a zero-dimensional fixed-point space.
    """
    failures = 0
    worst = 0.0
    for es, trivial in cases:
        rep = verify(es)
        worst = max(worst, rep.distance)
        ok = rep.verdict and rep.fixed_dim == rep.target_dim and rep.distance <= 1e-8
        if not ok or (trivial and rep.fixed_dim != 0):
            failures += 1
    details = {"sets": len(cases), "max_distance": worst, **extra, "failures": failures}
    return CriterionResult(cid, description, failures == 0, details)


def _c1(scale: Scale) -> CriterionResult:
    return _fixed_point_criterion(
        "C1",
        "commuting resolutions: fixed-point space equals the commutant",
        verify_resolution_fixed_points,
        [(es, False) for es in _resolution_pool(scale)],
    )


def _c2(scale: Scale) -> CriterionResult:
    cases = [(es, uf == 0.0) for uf, es in _subnormalized_pool(scale)]
    return _fixed_point_criterion(
        "C2",
        "commuting subnormalized sets: fixed-point space equals the compressed commutant",
        verify_subnormalized_fixed_points,
        cases,
        zero_unit_fraction_sets=sum(trivial for _, trivial in cases),
    )


def _c3(scale: Scale) -> CriterionResult:
    pool = _noncommuting_pool(scale)
    return _fixed_point_criterion(
        "C3",
        "non-commuting resolutions: fixed-point space still equals the commutant",
        verify_resolution_fixed_points,
        [(es, False) for es in pool],
        min_commutator_norm=min((es.max_pairwise_commutator_norm for es in pool), default=None),
    )


def _c4(scale: Scale) -> CriterionResult:
    pool = _resolution_pool(scale)
    failures = 0
    worst_half = 0.0
    worst_res = 0.0
    for es in pool:
        sol = nagy_solve(LuedersOperation(es))
        worst_half = max(worst_half, sol.half_identity_distance)
        worst_res = max(worst_res, sol.residual)
        if not (sol.half_identity_distance <= 1e-9 and sol.residual <= 1e-10):
            failures += 1
    return CriterionResult(
        "C4",
        "the complete-disturbance equation has the unique solution I/2 on resolutions",
        failures == 0,
        {
            "sets": len(pool),
            "max_half_identity_distance": worst_half,
            "max_residual": worst_res,
            "failures": failures,
        },
    )


def _c5(scale: Scale) -> CriterionResult:
    sets = (
        list(_resolution_pool(scale))
        + [es for _, es in _subnormalized_pool(scale)]
        + list(_noncommuting_pool(scale))
    )
    failures = 0
    excesses = []
    for i, es in enumerate(sets):
        cert = channel_norm(LuedersOperation(es), probes=scale.norm_probes, seed=7000 + i)
        excess = cert.max_probe_image_norm - cert.value
        excesses.append(excess)
        if not (cert.identity_image_norm == cert.value and excess <= 1e-10):
            failures += 1
    return CriterionResult(
        "C5",
        "channel norm: ‖Φ(I)‖ equals ‖F‖ exactly and random probes never exceed it",
        failures == 0,
        {"sets": len(sets), "max_probe_excess": max(excesses, default=None), "failures": failures},
    )


def _oracle_block_norm(effect_matrix: np.ndarray, b: np.ndarray, m: int, k: int, j: int) -> float:
    # Independent route: raw eigh, plain half-open comparisons, no window code.
    w, u = np.linalg.eigh(effect_matrix)
    w = np.clip(w, 0.0, 1.0)
    snap = 1e-9

    def proj(idx: int) -> np.ndarray:
        sel = (w > idx / m + snap) & (w <= (idx + 1) / m + snap)
        cols = u[:, sel]
        return cols @ cols.conj().T

    return float(np.linalg.svd(proj(k) @ b @ proj(j), compute_uv=False)[0])


def _c6(scale: Scale) -> CriterionResult:
    failures = 0
    worst_oracle_gap = 0.0
    commuting_detected = 0
    for i in range(scale.witness_cases):
        d = 2 + (i % 7)
        rng = philox_generator(8000 + i)
        eff = _random_effect(d, rng)
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        try:
            cert = witness_search(eff, b)
        except CommutesNoWitness:
            failures += 1
            continue
        oracle = _oracle_block_norm(eff.matrix, b, cert.m, cert.k, cert.j)
        gap = abs(cert.block_norm - oracle)
        worst_oracle_gap = max(worst_oracle_gap, gap)
        if not (abs(cert.k - cert.j) >= 2 and gap <= 1e-10):
            failures += 1
        # a polynomial in the effect commutes: the typed outcome must fire
        coeffs = rng.standard_normal(3)
        poly = coeffs[0] * np.eye(d) + coeffs[1] * eff.matrix + coeffs[2] * (eff.matrix @ eff.matrix)
        try:
            witness_search(eff, poly)
            failures += 1
        except CommutesNoWitness:
            commuting_detected += 1
    return CriterionResult(
        "C6",
        "witness search matches a brute-force eigenprojector oracle",
        failures == 0,
        {
            "cases": scale.witness_cases,
            "max_oracle_gap": worst_oracle_gap,
            "commuting_detected": commuting_detected,
            "failures": failures,
        },
    )


def _c7(scale: Scale) -> CriterionResult:
    failures = 0
    checks: dict[str, float] = {}
    margins = []
    cases = 0
    attempt = 0
    while cases < scale.contraction_cases and attempt < 4 * scale.contraction_cases:
        attempt += 1
        d = 3 + (attempt % 4)
        n = 2 + (attempt % 2)
        if attempt % 2 == 0:
            es = generate_commuting_resolution(d, n, 9000 + attempt)
        else:
            es = generate_commuting_subnormalized(d, n, 9000 + attempt, 0.25)
        rng = philox_generator(9500 + attempt)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        try:
            cert = witness_search(es.effects[0], x)
        except CommutesNoWitness:
            continue
        p = contraction_threshold(es.n, cert.m)
        rep = build_contractive_block(es, x, p)
        cases += 1
        margin = rep.achieved_ratio - rep.bound
        margins.append(margin)
        proj_comm = max(
            mk.operator_norm(q @ e - e @ q)
            for q in (rep.left_projector, rep.right_projector)
            for e in es.matrices
        )
        orthogonal = mk.operator_norm(rep.left_projector @ rep.right_projector)
        squeeze_ok = (
            sum(k * k for k in rep.coarse_left) <= rep.m**2
            and sum(k * k for k in rep.coarse_right) <= rep.m**2
        )
        ok = (
            rep.bound > 0
            and margin >= -1e-12
            and proj_comm <= 1e-9
            and orthogonal <= 1e-10
            and abs(rep.refined_left[0] - rep.refined_right[0]) >= p
            and squeeze_ok
        )
        if not ok:
            failures += 1
    spot = contraction_bound(1, 2, 100)
    checks["bound_1_2_100"] = spot
    checks["bound_1_2_100_printed"] = f"{spot:.7f}"
    limit_gap = abs(contraction_bound(1, 2, 10**6) - 0.125)
    checks["limit_gap_at_p_1e6"] = limit_gap
    formula_ok = f"{spot:.7f}" == "0.1149750" and limit_gap <= 1e-4
    return CriterionResult(
        "C7",
        "the contractive block construction achieves its explicit bound",
        failures == 0 and cases >= scale.contraction_cases and formula_ok,
        {
            "cases": cases,
            "min_margin": min(margins, default=None),
            "failures": failures,
            **checks,
        },
    )


def _c8(scale: Scale) -> CriterionResult:
    sets = list(_resolution_pool(scale)) + [es for _, es in _subnormalized_pool(scale)]
    failures = 0
    for es in sets:
        blocks = joint_eigenspaces(es)
        if commutant(es).dim != sum(b.dim**2 for b in blocks):
            failures += 1
    return CriterionResult(
        "C8",
        "commutant dimension equals the sum of squared joint-block dimensions",
        failures == 0,
        {"sets": len(sets), "failures": failures},
    )


def _c9(scale: Scale) -> CriterionResult:
    pool = _resolution_pool(scale)
    commuting_pool = [es for es in pool if es.commuting]
    trials = scale.density_trials if commuting_pool else 0
    disagreements = 0
    for t in range(trials):
        es = commuting_pool[t % len(commuting_pool)]
        op = LuedersOperation(es)
        d = es.dim
        rng = philox_generator(11000 + t)
        if t % 2 == 0:
            # diagonal in the joint eigenbasis: undisturbed by construction
            u = np.hstack([b.basis for b in joint_eigenspaces(es)])
            w = rng.random(d)
            w = w / w.sum()
            rho = (u * w) @ u.conj().T
            rho = (rho + rho.conj().T) / 2
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho = rho / np.real(np.trace(rho))
        fixed, commutes = is_undisturbed_state(op, rho)
        if fixed != commutes:
            disagreements += 1
    return CriterionResult(
        "C9",
        "a state is fixed iff it commutes with every effect (equivalence sweep)",
        disagreements == 0,
        {"trials": trials, "disagreements": disagreements},
    )


def _c10(scale: Scale) -> CriterionResult:
    recon_failures = 0
    worst_recon = 0.0
    for t in range(scale.eig_trials):
        d = 2 + (t % 11)
        rng = philox_generator(13000 + t)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        w, u = mk.hermitian_eigendecompose(h)
        rebuilt = (u * w) @ u.conj().T
        rel = float(np.linalg.norm(rebuilt - h) / np.linalg.norm(h))
        worst_recon = max(worst_recon, rel)
        if rel > 1e-9:
            recon_failures += 1
    window_failures = 0
    worst_partition = 0.0
    for t in range(scale.window_effects):
        d = 2 + (t % 7)
        eff = _random_effect(d, philox_generator(15000 + t))
        for m in (2, 3, 5, 8):
            total = mk.sum_terms([spectral_window(eff, k, m) for k in range(-1, m)])
            defect = float(np.linalg.norm(total - np.eye(d)))
            worst_partition = max(worst_partition, defect)
            if defect > 1e-10:
                window_failures += 1
    return CriterionResult(
        "C10",
        "kernel health: eigendecomposition reconstruction and window partitions",
        recon_failures == 0 and window_failures == 0,
        {
            "eig_trials": scale.eig_trials,
            "max_relative_reconstruction": worst_recon,
            "window_effects": scale.window_effects,
            "max_partition_defect": worst_partition,
        },
    )


CRITERIA = {
    "C1": _c1,
    "C2": _c2,
    "C3": _c3,
    "C4": _c4,
    "C5": _c5,
    "C6": _c6,
    "C7": _c7,
    "C8": _c8,
    "C9": _c9,
    "C10": _c10,
}


def run_criterion(cid: str, scale: Scale = FULL) -> CriterionResult:
    return CRITERIA[cid](scale)


def run_suite(scale: Scale = FULL) -> SuiteReport:
    return SuiteReport(scale.name, tuple(CRITERIA[cid](scale) for cid in CRITERIA))
