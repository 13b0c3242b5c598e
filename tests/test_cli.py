import json
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import lueders
from lueders.cli import main
from lueders.effects import (
    build_effect_set,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from lueders.operation import channel_norm
from lueders.rng import philox_generator
from lueders.serialize import (
    DIM_LIMIT,
    dump_effect_set,
    dump_operator,
    effect_set_to_json,
    load_effect_set,
    operator_to_json,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _pinching_file(tmp_path):
    path = tmp_path / "pinching.json"
    dump_effect_set(path, build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    return str(path)


def _out(capsys):
    return capsys.readouterr().out


def test_gen_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "set.json"
    code = main(
        ["gen", "--flavor", "commuting-resolution", "--d", "4", "--n", "3",
         "--seed", "5", "--out", str(path)]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["d"] == 4 and doc["n"] == 3 and doc["seed"] == 5
    assert doc["flavor"] == "commuting-resolution"

    assert main(["validate", str(path)]) == 0
    report = json.loads(_out(capsys))
    assert report["valid"] and report["commuting"]
    assert report["normalization"] == "resolution"
    assert report["sum_of_squares"]["frobenius_distance_to_identity"] < 1e-10
    assert list(report["sum_of_squares"]) == ["frobenius_distance_to_identity", "max_eigenvalue"]


@pytest.mark.parametrize("flavor", ["commuting-resolution", "commuting-subnormalized", "noncommuting-resolution"])
def test_validate_max_eigenvalue_is_that_of_the_hermitized_sum(flavor, tmp_path, capsys):
    path = tmp_path / "set.json"
    assert main(["gen", "--flavor", flavor, "--d", "7", "--n", "3", "--seed", "2", "--out", str(path)]) == 0
    f = load_effect_set(path).sum_of_squares
    assert main(["validate", str(path)]) == 0
    want = float(np.linalg.eigvalsh((f + f.conj().T) / 2)[-1])
    assert json.loads(_out(capsys))["sum_of_squares"]["max_eigenvalue"] == want


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--flavor", "commuting-subnormalized", "--d", "5", "--n", "2",
            "--seed", "7", "--unit-fraction", "0.4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["unit_fraction"] == 0.4


def test_gen_argument_errors(capsys):
    assert main(["gen", "--flavor", "commuting-resolution", "--d", "100", "--n", "2"]) == 3
    assert main(
        ["gen", "--flavor", "commuting-subnormalized", "--d", "3", "--n", "2",
         "--unit-fraction", "1.5"]
    ) == 3
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--flavor", "bogus", "--d", "2", "--n", "2"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gen", "--flavor", "commuting-resolution", "--d", "2", "--n", "2", "--seed", "-1"],
    ["gen", "--flavor", "noncommuting-resolution", "--d", "3", "--n", "1"],
    ["gen", "--flavor", "noncommuting-resolution", "--d", "3", "--n", "2"],
    ["gen", "--flavor", "noncommuting-resolution", "--d", "1", "--n", "3"],
    ["bound", "--n", "1", "--m", "1", "--p", str(10**200)],
    ["bound", "--n", "1", "--m", "1", "--p", str(2**53 + 1)],
], ids=["negative-seed", "noncommuting-n1", "noncommuting-n2", "noncommuting-d1", "p-1e200", "p-2^53+1"])
def test_arguments_the_library_rejects_exit_three(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidArgument: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flavor", ["commuting-resolution", "noncommuting-resolution"])
def test_unit_fraction_with_another_flavor_exits_three(flavor, tmp_path, capsys):
    out = tmp_path / "set.json"
    argv = ["gen", "--flavor", flavor, "--d", "3", "--n", "3", "--unit-fraction", "0.5", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: InvalidArgument: ")
    assert "--unit-fraction" in captured.err and not out.exists()


def test_subnormalized_unit_fraction_defaults_to_zero(capsys):
    argv = ["gen", "--flavor", "commuting-subnormalized", "--d", "3", "--n", "2", "--seed", "4"]
    assert main(argv) == 0
    default = _out(capsys)
    assert main(argv + ["--unit-fraction", "0"]) == 0
    assert _out(capsys) == default
    assert '"unit_fraction": 0.0' in default


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    capsys.readouterr()


def test_validate_reports_violation_with_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 1, "n": 1, "effects": [[[[1.5, 0]]]]}')
    assert main(["validate", str(path)]) == 1
    report = json.loads(_out(capsys))
    assert report["valid"] is False
    assert report["violation"] == "SpectrumAboveOne"


@pytest.mark.parametrize("s", [1e-170, 1e-300, 5e-324])
def test_validate_names_the_asymmetry_of_tiny_matrices(s, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"d": 2, "n": 1, "effects": [[[[0, 0], [s, 0]], [[0, 0], [0, 0]]]]}))
    assert main(["validate", str(path)]) == 1
    report = json.loads(_out(capsys))
    assert (report["valid"], report["violation"]) == (False, "NotHermitian")
    assert report["detail"].startswith(f"asymmetry {s * np.sqrt(2):.3e} exceeds")


def test_validate_parse_error_and_missing_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    assert main(["validate", str(path)]) == 3
    assert main(["validate", str(tmp_path / "absent.json")]) == 3
    capsys.readouterr()


def test_analyze_pinching(tmp_path, capsys):
    assert main(["analyze", _pinching_file(tmp_path)]) == 0
    report = json.loads(_out(capsys))
    assert report["fixed_dim"] == 2 and report["commutant_dim"] == 2
    assert abs(report["channel_norm"] - 1.0) < 1e-12
    assert report["joint_block_dims"] == [1, 1]


@pytest.mark.parametrize(
    "command,solver,size",
    [
        pytest.param("verify", "eigvalsh", 4, id="verify"),
        pytest.param("analyze", "eigvalsh", 4, id="analyze"),
        pytest.param("validate", "eigh", 2, id="validate"),
    ],
)
def test_lapack_failure_exits_three(command, solver, size, tmp_path, monkeypatch, capsys):
    # A LinAlgError from the eigvalsh of the 4×4 matrix of Φ (d = 2), or from the eigh of a
    # 2×2 effect in validate_effect, is a typed exit 3 under its own name, not exit 4.
    # verify and analyze reach that eigvalsh only where the Cholesky certificate refuses.
    path = _pinching_file(tmp_path)
    solve = getattr(np.linalg, solver)
    monkeypatch.setattr("lueders.operation._certify", lambda *args: False)

    def failing(a, *args, **kwargs):
        if np.shape(a)[-1] == size:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, solver, failing)
    assert main([command, path]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: LinAlgError: Eigenvalues did not converge\n"


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_refused_certificate_is_no_error(command, tmp_path, monkeypatch, capsys):
    # A Cholesky that meets a non-positive pivot only sends the set to the eigvalsh
    # route: the same body, and never exit 3 by itself.
    path = _pinching_file(tmp_path)
    assert main([command, path]) == 0
    want = capsys.readouterr()

    def not_positive_definite(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    assert main([command, path]) == 0
    assert capsys.readouterr() == want


def test_verify_resolution_and_subnormalized(tmp_path, capsys):
    assert main(["verify", _pinching_file(tmp_path)]) == 0
    rep = json.loads(_out(capsys))
    assert rep["theorem"] == "3.1" and rep["verdict"] is True
    assert set(rep) == {"theorem", "fixed_dim", "target_dim", "distance", "verdict"}

    sub = tmp_path / "sub.json"
    dump_effect_set(sub, build_effect_set([np.diag([1.0, 0.5])]))
    assert main(["verify", str(sub)]) == 0
    rep2 = json.loads(_out(capsys))
    assert rep2["theorem"] == "3.2" and rep2["verdict"] is True
    assert rep2["fixed_dim"] == rep2["target_dim"] == 1


def _unit_deficit_file(tmp_path, eps, q=np.eye(3)):
    """E₁ = q·diag(0.6, 1, 0.28r)·q†, E₂ = q·diag(0.8, 0, 0.96r)·q†, r = √(1 - ε), as a file."""
    r = np.sqrt(1.0 - eps)
    mats = [(q * t) @ q.conj().T for t in ([0.6, 1.0, 0.28 * r], [0.8, 0.0, 0.96 * r])]
    path = tmp_path / "deficit.json"
    dump_effect_set(path, build_effect_set([(m + m.conj().T) / 2 for m in mats]))
    return str(path)


@pytest.mark.parametrize(
    "eps,normalization,report",
    [
        (0.0, "resolution", ("3.1", 3, 3, True)),
        (1e-12, "resolution", ("3.1", 3, 3, True)),
        (5e-11, "resolution", ("3.1", 3, 3, True)),
        (2e-9, "subnormalized", ("3.2", 2, 2, True)),
        (5e-9, "subnormalized", ("3.2", 2, 2, True)),
        (9e-9, "subnormalized", ("3.2", 2, 2, True)),
        (1e-10, "resolution", ("3.1", 3, 3, True)),
        (5e-10, "resolution", ("3.1", 3, 3, True)),
    ],
)
def test_verify_unit_deficit_family(eps, normalization, report, tmp_path, capsys):
    # F = diag(1, 1, 1 - ε): a deficit beyond CLUSTER makes a subnormalized set, not a false 3.1.
    path = _unit_deficit_file(tmp_path, eps)
    assert main(["validate", str(path)]) == 0
    assert json.loads(_out(capsys))["normalization"] == normalization
    assert main(["verify", str(path)]) == 0
    rep = json.loads(_out(capsys))
    assert (rep["theorem"], rep["fixed_dim"], rep["target_dim"], rep["verdict"]) == report


@pytest.mark.parametrize("eps,verdict", [(2e-9, True), (1e-8, True), (1e-7, True), (1e-6, True)])
def test_verify_rotated_unit_deficit_family(eps, verdict, tmp_path, capsys):
    # The ε family in a seeded random basis: the "3.2" target stays two-dimensional,
    # and the eigenvalue margin ε of the third direction decides it even where the
    # eigenvectors of Φ are off by up to 1.7e-7.
    g = philox_generator(3).standard_normal((2, 3, 3))
    code = main(["verify", _unit_deficit_file(tmp_path, eps, np.linalg.qr(g[0] + 1j * g[1])[0])])
    rep = json.loads(_out(capsys))
    assert (rep["theorem"], rep["fixed_dim"], rep["target_dim"]) == ("3.2", 2, 2)
    assert (code, rep["verdict"]) == (0, verdict)


def test_verify_noncommuting_subnormalized_reports_theorem_3_2(tmp_path, capsys):
    scaled = [0.9 * e for e in generate_noncommuting_resolution(3, 3, seed=2).matrices]
    path = tmp_path / "nc.json"
    dump_effect_set(path, build_effect_set(scaled))
    assert main(["verify", str(path)]) == 0
    rep = json.loads(_out(capsys))
    assert (rep["theorem"], rep["fixed_dim"], rep["target_dim"], rep["verdict"]) == ("3.2", 0, 0, True)


def test_witness_finds_pair_and_handles_commuting(tmp_path, capsys):
    es_path = _pinching_file(tmp_path)
    op_path = tmp_path / "sx.json"
    dump_operator(op_path, SIGMA_X)
    assert main(["witness", es_path, str(op_path)]) == 0
    cert = json.loads(_out(capsys))
    assert (cert["m"], cert["k"], cert["j"]) == (2, -1, 1)
    assert "left_projector" not in cert

    assert main(["witness", es_path, str(op_path), "--full"]) == 0
    assert "left_projector" in json.loads(_out(capsys))

    diag_path = tmp_path / "diag.json"
    dump_operator(diag_path, np.diag([3.0, -1.0]))
    assert main(["witness", es_path, str(diag_path)]) == 2
    assert _out(capsys) == (
        '{\n  "result": "commutes-no-witness",\n'
        '  "detail": "commutator norm 0.000e+00 within tolerance"\n}\n'
    )

    assert main(["witness", es_path, str(op_path), "--index", "3"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,classified",
    [
        (["validate", "{set}"], True),
        (["analyze", "{set}"], True),
        (["verify", "{set}"], False),
        (["nagy", "{set}"], False),
        (["witness", "{set}", "{op}"], False),
        (["gen", "--flavor", "commuting-resolution", "--d", "4", "--n", "3"], False),
        (["gen", "--flavor", "commuting-subnormalized", "--d", "4", "--n", "3"], False),
        (["gen", "--flavor", "noncommuting-resolution", "--d", "4", "--n", "3"], False),
    ],
    ids=["validate", "analyze", "verify", "nagy", "witness", "gen-cr", "gen-cs", "gen-nc"],
)
def test_only_the_readers_of_the_classification_form_commutators(argv, classified, tmp_path, monkeypatch, capsys):
    # The pairwise commutator maximum is computed on first read: validate and analyze report it.
    # No other command pays for it; the non-commuting generator stops at the first pair above its floor.
    op_path = tmp_path / "sx.json"
    dump_operator(op_path, SIGMA_X)
    paths = {"set": _pinching_file(tmp_path), "op": str(op_path)}
    calls = []
    max_norm = lueders.effects._max_commutator_norm
    monkeypatch.setattr(lueders.effects, "_max_commutator_norm", lambda mats: calls.append(1) or max_norm(mats))
    assert main([arg.format(**paths) for arg in argv]) == 0
    capsys.readouterr()
    assert bool(calls) is classified


def test_bound_output(capsys):
    assert main(["bound", "--n", "1", "--m", "2", "--p", "100"]) == 0
    text = _out(capsys)
    assert "0.1149750" in text
    assert "p* = " in text

    assert main(["bound", "--n", "1", "--m", "1"]) == 0
    assert _out(capsys).strip() == "p* = 5"

    assert main(["bound", "--n", "1", "--m", "1", "--p", "0"]) == 3
    capsys.readouterr()
    assert main(["bound", "--n", "1", "--m", "1", "--p", str(2**53)]) == 0
    assert _out(capsys).startswith(f"bound(n=1, m=1, p={2**53}) = 0.5000000")


def test_bound_at_the_argument_limit_is_fast(capsys):
    start = time.perf_counter()
    assert main(["bound", "--n", "1000000", "--m", "1000000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert _out(capsys).startswith("p* = ")


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_nonfinite_entries_exit_three(tmp_path, capsys, entry):
    es_path = tmp_path / "set.json"
    es_path.write_text('{"d": 2, "n": 1, "effects": [[[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]]}' % entry)
    op_path = tmp_path / "op.json"
    op_path.write_text('{"d": 2, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, %s]]]}' % entry)
    for argv in (["validate", str(es_path)], ["verify", str(es_path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError:") and "finite" in err
    assert main(["witness", _pinching_file(tmp_path), str(op_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and "finite" in err


@pytest.mark.parametrize(
    "matrix,message",
    [
        ('"rows"', "matrix must be a list of 2 rows"),
        ("[[[0, 0], [1, 0]]]", "matrix must be a list of 2 rows"),
        ("[[[0, 0], [1, 0]], [[1, 0]]]", "matrix row 1 must be a list of 2 entries"),
        ("[[[0, 0], [1, 0]], [[1, 0], [0]]]", "matrix entry (1, 1) must be a [re, im] pair"),
        ("[[[0, 0], [1, 0]], [[1, true], [0, 0]]]", "matrix entry (1, 0) imaginary part must be a number, got True"),
        ('[[[0, 0], [1, 0]], [[1, 0], ["0", 0]]]', "matrix entry (1, 1) real part must be a number, got '0'"),
        ("[[[0, 0], [1e400, 0]], [[1, 0], [0, null]]]", "matrix entry (0, 1) real part must be finite, got inf"),
    ],
    ids=["not-a-list", "one-row", "short-row", "short-entry", "bool", "string", "overflow"],
)
def test_malformed_operator_files_exit_three_naming_the_entry(matrix, message, tmp_path, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text('{"d": 2, "matrix": %s}' % matrix)
    assert main(["witness", _pinching_file(tmp_path), str(op_path)]) == 3
    assert capsys.readouterr().err == f"error: ParseError: {message}\n"


def test_witness_near_the_top_of_the_double_range(tmp_path, capsys):
    sign = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
    es_path, op_path = tmp_path / "set.json", tmp_path / "op.json"
    dump_effect_set(es_path, build_effect_set([np.diag([0.1, 0.5, 0.9])]))
    dump_operator(op_path, 1.7e308 * sign)
    assert main(["witness", str(es_path), str(op_path)]) == 0
    cert = json.loads(_out(capsys), parse_constant=pytest.fail)
    assert cert == {"m": 4, "k": 0, "j": 3, "block_norm": 1.7e308}

    # a 2×2 block of such entries has a norm no double can hold
    dump_effect_set(es_path, build_effect_set([np.diag([0.1, 0.1, 0.9, 0.9])]))
    dump_operator(op_path, np.kron([[0.0, 1.7e308], [0.0, 0.0]], np.ones((2, 2))))
    assert main(["witness", str(es_path), str(op_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "InvalidArgument" in captured.err and "double range" in captured.err


def _deeply_nested(path):
    # about 200 KB of nested arrays: far past the JSON decoder's recursion limit
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def test_deeply_nested_effect_file_exits_three(tmp_path, capsys):
    assert main(["validate", _deeply_nested(tmp_path / "nested.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ParseError: invalid JSON")


def test_deeply_nested_operator_file_exits_three(tmp_path, capsys):
    op_path = _deeply_nested(tmp_path / "nested-op.json")
    assert main(["witness", _pinching_file(tmp_path), op_path]) == 3
    assert capsys.readouterr().err.startswith("error: ParseError: invalid JSON")


def test_non_utf8_files_exit_three(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]], "flavor": "\xff"}')
    assert main(["validate", str(path)]) == 3
    assert main(["witness", _pinching_file(tmp_path), str(path)]) == 3
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(e.startswith("error: ParseError: not UTF-8") for e in errors)


def test_effect_file_over_the_dimension_cap_exits_three(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(effect_set_to_json(build_effect_set([np.eye(DIM_LIMIT + 1)])))
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and f"at most {DIM_LIMIT}" in err


def test_operator_file_over_the_dimension_cap_exits_three(tmp_path, capsys):
    path = tmp_path / "big-op.json"
    path.write_text(operator_to_json(np.eye(DIM_LIMIT + 1)))
    assert main(["witness", _pinching_file(tmp_path), str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and f"at most {DIM_LIMIT}" in err


def _scalar_effects_document(n):
    """n copies of the 1×1 effect 0.03: F = 0.0009·n, subnormalized for every n ≤ 1111."""
    return json.dumps({"d": 1, "n": n, "effects": [[[[0.03, 0.0]]]] * n})


def test_effect_file_over_the_count_cap_exits_three_at_once(tmp_path, capsys):
    # Classifying a set takes n(n - 1)/2 commutators (800 1×1 effects take about 7 s), so the cap comes first.
    path = tmp_path / "many.json"
    path.write_text(_scalar_effects_document(DIM_LIMIT + 1))
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: n must be") and f"at most {DIM_LIMIT}" in err


def test_effect_file_at_the_count_cap_validates(tmp_path, capsys):
    path = tmp_path / "cap-n.json"
    path.write_text(_scalar_effects_document(DIM_LIMIT))
    assert main(["validate", str(path)]) == 0
    report = json.loads(_out(capsys))
    assert report["valid"] and report["n"] == DIM_LIMIT


def test_effect_file_at_the_dimension_cap_validates(tmp_path, capsys):
    path = tmp_path / "cap.json"
    assert main(["gen", "--flavor", "commuting-resolution", "--d", str(DIM_LIMIT), "--n", "1",
                 "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    report = json.loads(_out(capsys))
    assert report["valid"] and report["d"] == DIM_LIMIT


def test_gen_out_file_follows_the_umask(tmp_path):
    path = tmp_path / "set.json"
    old = os.umask(0o022)
    try:
        assert main(["gen", "--flavor", "commuting-resolution", "--d", "2", "--n", "2",
                     "--out", str(path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_analyze_channel_norm_matches_certificate(tmp_path, capsys):
    path = tmp_path / "sub.json"
    es = generate_commuting_subnormalized(4, 3, seed=3, unit_fraction=0.5)
    dump_effect_set(path, es)
    assert main(["analyze", str(path)]) == 0
    report = json.loads(_out(capsys))
    assert report["channel_norm"] == channel_norm(es).value


def test_nagy_resolution(tmp_path, capsys):
    path = _pinching_file(tmp_path)
    assert main(["nagy", path]) == 0
    rep = json.loads(_out(capsys))
    assert rep["half_identity_distance"] <= 1e-10
    assert rep["is_effect"] is True
    assert "solution" not in rep

    assert main(["nagy", path, "--full"]) == 0
    full = json.loads(_out(capsys))
    assert np.abs(np.array(full["solution"])[:, :, 0] - 0.5 * np.eye(2)).max() < 1e-10


SUITE_DETAIL_KEYS = {
    "C1": ["sets", "max_distance", "failures"],
    "C2": ["sets", "max_distance", "zero_unit_fraction_sets", "failures"],
    "C3": ["sets", "max_distance", "min_commutator_norm", "failures"],
    "C4": ["sets", "max_half_identity_distance", "max_residual", "failures"],
    "C5": ["sets", "max_probe_excess", "failures"],
    "C6": ["cases", "max_oracle_gap", "commuting_detected", "failures"],
    "C7": ["cases", "min_margin", "failures", "bound_1_2_100", "bound_1_2_100_printed", "limit_gap_at_p_1e6"],
    "C8": ["sets", "failures"],
    "C9": ["trials", "disagreements"],
    "C10": ["eig_trials", "max_relative_reconstruction", "window_effects", "max_partition_defect"],
}


def test_suite_quick(capsys):
    assert main(["suite", "--quick"]) == 0
    rep = json.loads(_out(capsys))
    assert rep["all_passed"] is True
    assert [c["id"] for c in rep["criteria"]] == list(SUITE_DETAIL_KEYS)
    for c in rep["criteria"]:
        assert list(c) == ["id", "description", "passed", "details"]
        assert list(c["details"]) == SUITE_DETAIL_KEYS[c["id"]]


@pytest.fixture
def inputs(tmp_path):
    """Input files by the names the REPORTS argv use."""
    paths = {name: tmp_path / f"{name}.json" for name in ("noncommuting", "violation", "sigma-x", "diagonal")}
    dump_effect_set(paths["noncommuting"], generate_noncommuting_resolution(3, 3, seed=2))
    paths["violation"].write_text('{"d": 1, "n": 1, "effects": [[[[1.5, 0]]]]}')
    dump_operator(paths["sigma-x"], SIGMA_X)
    dump_operator(paths["diagonal"], np.diag([3.0, -1.0]))
    return {"pinching": _pinching_file(tmp_path), **{name: str(p) for name, p in paths.items()}}


_CLASSIFICATION = ["d", "n", "commuting", "normalization", "max_pairwise_commutator_norm"]
_ANALYZE = [*_CLASSIFICATION, "channel_norm", "fixed_dim", "commutant_dim"]
_NAGY = ["d", "residual", "half_identity_distance", "is_effect"]
_WITNESS = ["m", "k", "j", "block_norm"]

# Every kind of report: argv (input names resolved by `inputs`), exit code,
# and the top-level keys of the JSON body in order (None for a text body).
REPORTS = {
    "gen": (["gen", "--flavor", "commuting-resolution", "--d", "3", "--n", "2"], 0, None),
    "bound": (["bound", "--n", "1", "--m", "2", "--p", "100"], 0, None),
    "validate": (["validate", "pinching"], 0, ["valid", *_CLASSIFICATION, "effect_spectra", "sum_of_squares"]),
    "validate-violation": (["validate", "violation"], 1, ["valid", "violation", "detail"]),
    "analyze-commuting": (["analyze", "pinching"], 0, [*_ANALYZE, "joint_block_dims"]),
    "analyze-noncommuting": (["analyze", "noncommuting"], 0, _ANALYZE),
    "verify": (["verify", "pinching"], 0, ["theorem", "fixed_dim", "target_dim", "distance", "verdict"]),
    "nagy": (["nagy", "pinching"], 0, _NAGY),
    "nagy-full": (["nagy", "pinching", "--full"], 0, [*_NAGY, "solution"]),
    "witness": (["witness", "pinching", "sigma-x"], 0, _WITNESS),
    "witness-full": (["witness", "pinching", "sigma-x", "--full"], 0, [*_WITNESS, "left_projector", "right_projector"]),
    "no-witness": (["witness", "pinching", "diagonal"], 2, ["result", "detail"]),
    "suite-quick": (["suite", "--quick"], 0, ["scale", "criteria", "all_passed"]),
}


@pytest.mark.parametrize("name", [name for name, (_, _, keys) in REPORTS.items() if keys is not None])
def test_report_keys_and_their_order(name, inputs, capsys):
    argv, code, keys = REPORTS[name]
    assert main([inputs.get(a, a) for a in argv]) == code
    assert list(json.loads(_out(capsys))) == keys


@pytest.mark.parametrize("name", REPORTS)
def test_out_receives_exactly_the_printed_bytes(name, inputs, tmp_path, capsys):
    argv, code, _ = REPORTS[name]
    argv = [inputs.get(a, a) for a in argv]
    assert main(argv) == code
    printed = _out(capsys)
    out = tmp_path / "report.out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("name", ["witness", "nagy"])
def test_consecutive_calls_share_no_state(name, inputs, tmp_path, capsys):
    # main parses every call with one parser: --full and --out must not reach the next call.
    argv = [inputs.get(a, a) for a in REPORTS[name][0]]
    assert main(argv) == 0
    printed = _out(capsys)
    assert main([*argv, "--full"]) == 0
    assert main([*argv, "--full", "--out", str(tmp_path / "full.out")]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert _out(capsys) == printed


def test_console_entry_point(tmp_path):
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(lueders.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lueders.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "lueders" in proc.stdout

    out = tmp_path / "gen.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lueders.cli", "gen", "--flavor",
         "noncommuting-resolution", "--d", "3", "--n", "3", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["d"] == 3
