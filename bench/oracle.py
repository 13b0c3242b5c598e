"""Output checks for every benchmark op, and a self-test that feeds them wrong bodies.

Each check returns a list of problems; an op counts as failed when the list
is not empty.  Expected values come from how the input was built (the joint
spectrum of a constructed set, the flavor and size passed to ``gen``, the
documented pool sizes of the suite), never from another run of the program.

Run ``python3 bench/oracle.py`` to see the self-test verdicts.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

CLUSTER_SNAP = 1e-9  # the package's spectral-window edge snap (Tolerances.cluster)

# Pool sizes of the two suite scales: products of the Scale fields, written
# out so that a change to the battery's work shows up as a wrong body.
SUITE_EXPECTED = {
    "full": {
        "scale": "full",
        "counts": {
            "C1": {"sets": 210}, "C2": {"sets": 144, "zero_unit_fraction_sets": 48},
            "C3": {"sets": 105}, "C4": {"sets": 210}, "C5": {"sets": 459},
            "C6": {"cases": 100, "commuting_detected": 100}, "C7": {"cases": 50},
            "C8": {"sets": 354}, "C9": {"trials": 500},
            "C10": {"eig_trials": 1000, "window_effects": 24},
        },
    },
    "quick": {
        "scale": "quick",
        "counts": {
            "C1": {"sets": 27}, "C2": {"sets": 18, "zero_unit_fraction_sets": 6},
            "C3": {"sets": 6}, "C4": {"sets": 27}, "C5": {"sets": 51},
            "C6": {"cases": 20, "commuting_detected": 20}, "C7": {"cases": 8},
            "C8": {"sets": 45}, "C9": {"trials": 60},
            "C10": {"eig_trials": 120, "window_effects": 8},
        },
    },
}
# (p² - 4√n·m·p - 2n) / (2(pm)²) at n = 1, m = 2, p = 100 is 9198/80000.
C7_SPOT_PRINTED = f"{9198 / 80000:.7f}"


def _parse(cmd: str, rc: int, text: str, want_rc: int, problems: list):
    if rc != want_rc:
        problems.append(f"{cmd}: exit {rc}, expected {want_rc}")
        return None
    try:
        body = json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{cmd}: output is not JSON")
        return None
    if not isinstance(body, dict):
        problems.append(f"{cmd}: output is not a JSON object")
        return None
    return body


def _expect(cmd: str, body: dict, key: str, ok, problems: list, what: str = "") -> None:
    if key not in body:
        problems.append(f"{cmd}: missing {key}")
    elif not ok(body[key]):
        problems.append(f"{cmd}: {key}={body[key]!r} {what}".rstrip())


def _window_projector(values: np.ndarray, vectors: np.ndarray, m: int, k: int) -> np.ndarray:
    sel = (values > k / m + CLUSTER_SNAP) & (values <= (k + 1) / m + CLUSTER_SNAP)
    cols = vectors[:, sel]
    return cols @ cols.conj().T


def witness_block_norm(exp: dict, m: int, k: int, j: int) -> float:
    """‖P_k B P_j‖ from the constructed eigenbasis of effect 1."""
    p = _window_projector(exp["witness_eigenvalues"], exp["witness_eigenvectors"], m, k)
    q = _window_projector(exp["witness_eigenvalues"], exp["witness_eigenvectors"], m, j)
    return float(np.linalg.svd(p @ exp["witness_operator"] @ q, compute_uv=False)[0])


def check_cli(kind, results) -> list:
    """verify, analyze, nagy and witness on a constructed set."""
    exp = kind.expected
    problems: list = []
    out = {cmd: (rc, text) for cmd, rc, text in results}

    body = _parse("verify", *out["verify"], 0, problems)
    if body is not None:
        _expect("verify", body, "theorem", lambda v: v == exp["theorem"], problems)
        _expect("verify", body, "verdict", lambda v: v is True, problems)
        _expect("verify", body, "distance", lambda v: 0 <= v <= 1e-8, problems)
        _expect("verify", body, "fixed_dim", lambda v: v == exp["fixed_dim"], problems,
                f"expected {exp['fixed_dim']}")
        _expect("verify", body, "target_dim", lambda v: v == exp["fixed_dim"], problems,
                f"expected {exp['fixed_dim']}")

    body = _parse("analyze", *out["analyze"], 0, problems)
    if body is not None:
        for key in ("d", "n", "commuting", "normalization", "fixed_dim", "commutant_dim"):
            _expect("analyze", body, key, lambda v, key=key: v == exp[key], problems,
                    f"expected {exp[key]!r}")
        _expect("analyze", body, "channel_norm", lambda v: abs(v - 1.0) <= 1e-12, problems)
        if exp["commuting"]:
            _expect("analyze", body, "max_pairwise_commutator_norm", lambda v: 0 <= v <= 1e-9, problems)
            _expect("analyze", body, "joint_block_dims", lambda v: v == exp["joint_block_dims"], problems)
            _expect("analyze", body, "joint_block_dims",
                    lambda v: sum(b * b for b in v) == body.get("commutant_dim"), problems,
                    "squares do not sum to commutant_dim")
        else:
            _expect("analyze", body, "max_pairwise_commutator_norm",
                    lambda v: abs(v - exp["max_pairwise_commutator_norm"]) <= 1e-12, problems)
            if "joint_block_dims" in body:
                problems.append("analyze: joint_block_dims reported for a non-commuting set")

    body = _parse("nagy", *out["nagy"], 0, problems)
    if body is not None:
        _expect("nagy", body, "d", lambda v: v == exp["d"], problems)
        _expect("nagy", body, "residual", lambda v: 0 <= v <= 1e-10, problems)
        _expect("nagy", body, "is_effect", lambda v: v is True, problems)
        _expect("nagy", body, "half_identity_distance",
                lambda v: abs(v - exp["half_identity_distance"]) <= 1e-9, problems,
                f"expected {exp['half_identity_distance']:.3e}")

    body = _parse("witness", *out["witness"], 0, problems)
    if body is not None:
        try:
            m, k, j, norm = int(body["m"]), int(body["k"]), int(body["j"]), float(body["block_norm"])
        except (KeyError, TypeError, ValueError):
            problems.append("witness: missing or malformed m, k, j, block_norm")
        else:
            if m < 2 or m & (m - 1):
                problems.append(f"witness: m={m} is not a power of two >= 2")
            elif abs(k - j) < 2 or not (-1 <= min(k, j) and max(k, j) <= m - 1):
                problems.append(f"witness: windows k={k}, j={j} not separated in [-1, {m - 1}]")
            elif not norm > 0:
                problems.append(f"witness: block_norm={norm} not positive")
            else:
                want = witness_block_norm(exp, m, k, j)
                if abs(norm - want) > 1e-9 * max(1.0, want):
                    problems.append(f"witness: block_norm={norm!r}, construction gives {want!r}")
    return problems


def check_io(kind, results) -> list:
    """gen writes the same bytes every pass and they round-trip; validate classifies them."""
    exp = kind.expected
    problems: list = []
    (_, gen_rc, gen_out), (_, val_rc, val_out) = results
    if gen_rc != 0 or gen_out:
        problems.append(f"gen: exit {gen_rc} with {len(gen_out)} bytes on stdout")
    else:
        check_gen_bytes(kind, exp["path"].read_bytes(), problems)

    body = _parse("validate", val_rc, val_out, 0, problems)
    if body is not None:
        _expect("validate", body, "valid", lambda v: v is True, problems)
        for key in ("d", "n", "commuting", "normalization"):
            _expect("validate", body, key, lambda v, key=key: v == exp[key], problems,
                    f"expected {exp[key]!r}")
        _expect("validate", body, "effect_spectra",
                lambda v: len(v) == exp["n"] and all(-1e-12 <= lo <= hi <= 1 + 1e-12 for lo, hi in v),
                problems)
        # Every flavor keeps a unit eigenvalue of Σ Eᵢ²; only resolutions reach I.
        sos = body.get("sum_of_squares", {})
        if abs(sos.get("max_eigenvalue", math.inf) - 1.0) > 1e-9:
            problems.append(f"validate: max eigenvalue of Σ Eᵢ² is {sos.get('max_eigenvalue')!r}")
        dist = sos.get("frobenius_distance_to_identity", math.nan)
        if not (dist <= 1e-8 if exp["normalization"] == "resolution" else dist >= 0.05):
            problems.append(f"validate: distance to identity {dist!r} wrong for {exp['normalization']}")
    return problems


def check_gen_bytes(kind, data: bytes, problems: list) -> None:
    """First pass: header fields and a parse-then-emit round trip; later passes: same bytes."""
    digest = hashlib.sha256(data).hexdigest()
    if "gen_digest" in kind.state:
        if digest != kind.state["gen_digest"]:
            problems.append("gen: bytes differ from the first pass")
        return
    exp = kind.expected
    from lueders import serialize

    text = data.decode("utf-8")
    # The header keys precede "effects"; parsing only them keeps this check
    # from adding a second full parse to the process's peak memory.
    head = text[: text.find('"effects"')].rstrip().rstrip(",") + "}"
    try:
        doc = json.loads(head)
    except json.JSONDecodeError:
        doc = {}
    header = {key: doc.get(key) for key in ("d", "n", *exp["meta"])}
    if header != {"d": exp["d"], "n": exp["n"], **exp["meta"]}:
        problems.append(f"gen: header {header!r} does not match the request")
    elif serialize.effect_set_to_json(serialize.parse_effect_set(text), exp["meta"]) != text:
        problems.append("gen: parse-then-emit round trip changes the bytes")
    if not problems:
        kind.state["gen_digest"] = digest


def check_suite(kind, results) -> list:
    exp = kind.expected
    problems: list = []
    ((_, rc, text),) = results
    body = _parse("suite", rc, text, 0, problems)
    if body is None:
        return problems
    _expect("suite", body, "scale", lambda v: v == exp["scale"], problems)
    _expect("suite", body, "all_passed", lambda v: v is True, problems)
    criteria = body.get("criteria", [])
    ids = [c.get("id") for c in criteria]
    if ids != list(exp["counts"]):
        problems.append(f"suite: criteria {ids!r}")
        return problems
    for crit in criteria:
        cid, details = crit["id"], crit.get("details", {})
        if crit.get("passed") is not True:
            problems.append(f"suite: {cid} did not pass")
        for key, want in exp["counts"][cid].items():
            if details.get(key) != want:
                problems.append(f"suite: {cid} {key}={details.get(key)!r}, expected {want}")
        for key in ("failures", "disagreements"):
            if key in details and details[key] != 0:
                problems.append(f"suite: {cid} {key}={details[key]}")
    c7 = criteria[6].get("details", {})
    if c7.get("bound_1_2_100_printed") != C7_SPOT_PRINTED:
        problems.append(f"suite: C7 spot bound {c7.get('bound_1_2_100_printed')!r}")
    return problems


# ---------------------------------------------------------------------------
# self-test: hand-made right and wrong bodies


def _self_test_cases():
    from types import SimpleNamespace

    rng = np.random.default_rng(0)
    d = 4
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    values = np.array([0.05, 0.3, 0.6, 0.9])
    operator = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    exp = {
        "d": d, "n": 2, "commuting": True, "normalization": "resolution", "theorem": "3.1",
        "fixed_dim": d, "commutant_dim": d, "joint_block_dims": [1] * d,
        "half_identity_distance": 0.0, "witness_eigenvalues": values,
        "witness_eigenvectors": u, "witness_operator": operator,
    }
    cli_kind = SimpleNamespace(expected=exp, state={})
    m, k, j = 4, 0, 3
    bodies = {
        "verify": {"theorem": "3.1", "fixed_dim": d, "target_dim": d, "distance": 1e-14, "verdict": True},
        "analyze": {"d": d, "n": 2, "commuting": True, "normalization": "resolution",
                    "max_pairwise_commutator_norm": 1e-16, "channel_norm": 1.0,
                    "fixed_dim": d, "commutant_dim": d, "joint_block_dims": [1] * d},
        "nagy": {"d": d, "residual": 1e-16, "half_identity_distance": 1e-16, "is_effect": True},
        "witness": {"m": m, "k": k, "j": j, "block_norm": witness_block_norm(exp, m, k, j)},
    }

    def cli_results(**changes):
        out = []
        for cmd, body in bodies.items():
            body = {**body, **changes.get(cmd, {})}
            out.append((cmd, 0, json.dumps(body)))
        return out

    suite_exp = SUITE_EXPECTED["quick"]
    suite_kind = SimpleNamespace(expected=suite_exp, state={})

    def suite_body(failing=None, honest=True):
        criteria = []
        for cid, counts in suite_exp["counts"].items():
            details = {**counts, "failures": 0}
            if cid == "C7":
                details["bound_1_2_100_printed"] = C7_SPOT_PRINTED
            criteria.append({"id": cid, "description": "", "passed": cid != failing, "details": details})
        passed = failing is None or not honest
        body = {"scale": "quick", "criteria": criteria, "all_passed": passed}
        return [("suite", 0 if passed else 1, json.dumps(body))]

    def gen_problems(data: bytes) -> list:
        kind = SimpleNamespace(state={"gen_digest": hashlib.sha256(b'{"d": 1}\n').hexdigest()})
        problems: list = []
        check_gen_bytes(kind, data, problems)
        return problems

    yield "right cli bodies", False, check_cli(cli_kind, cli_results())
    yield "flipped verdict", True, check_cli(cli_kind, cli_results(verify={"verdict": False}))
    yield "wrong fixed_dim", True, check_cli(cli_kind, cli_results(analyze={"fixed_dim": d - 1}))
    yield "wrong witness block norm", True, check_cli(
        cli_kind, cli_results(witness={"block_norm": bodies["witness"]["block_norm"] * 1.01}))
    yield "right gen bytes", False, gen_problems(b'{"d": 1}\n')
    yield "gen one byte different", True, gen_problems(b'{"d": 2}\n')
    yield "right suite body", False, check_suite(suite_kind, suite_body())
    yield "suite with C5 failing", True, check_suite(suite_kind, suite_body("C5"))
    yield "C5 failing under exit 0 and all_passed", True, check_suite(
        suite_kind, suite_body("C5", honest=False))


def self_test_passes() -> bool:
    """Every hand-made body is judged right: right ones accepted, wrong ones rejected."""
    return all(bool(problems) == bad for _, bad, problems in _self_test_cases())


if __name__ == "__main__":
    ok = True
    for name, bad, problems in _self_test_cases():
        judged_right = bool(problems) == bad
        ok &= judged_right
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if judged_right else 'FAIL'} {name}: {verdict} {problems[:1]}")
    raise SystemExit(0 if ok else 1)
