import json
import os
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lueders import serialize
from lueders.effects import build_effect_set, generate_commuting_resolution
from lueders.errors import NotHermitian, ParseError, SpectrumAboveOne
from lueders.serialize import (
    _matrix_fragment,
    _parse_matrices,
    _parse_matrix_entries,
    dump_effect_set,
    dump_operator,
    effect_set_to_json,
    load_effect_set,
    load_operator,
    matrix_to_lists,
    operator_to_json,
    parse_effect_set,
    parse_operator,
    write_text_atomic,
)


def _bits(x):
    return struct.pack("<d", x)


def format_float(x: float) -> str:
    """Reference renderer, one entry at a time: 17 significant digits, negative zero as "-0.0"."""
    text = f"{float(x):.17g}"
    return "-0.0" if text == "-0" else text


def _reference_fragment(m) -> str:
    rows = []
    for row in np.asarray(m, dtype=complex):
        entries = ", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in row)
        rows.append(f"[{entries}]")
    return "[" + ", ".join(rows) + "]"


@pytest.mark.parametrize(
    "x", [0.0, 1.0, -1.0, 0.1, 1 / 3, np.pi, 1e-300, 1.7976931348623157e308, 5e-324]
)
def test_format_float_round_trips_bit_exactly(x):
    assert _bits(float(format_float(x))) == _bits(x)
    m = np.array([[complex(x, -x)]])
    text = operator_to_json(m)
    assert _matrix_fragment(m) in text
    assert parse_operator(text).view(np.uint64).tolist() == m.view(np.uint64).tolist()


def _effects_from(values, scale: float) -> list:
    """Two 4×4 effects built from 32 of the given values, times an exact power of two."""
    h = (values[:16] + 1j * values[16:32]).reshape(4, 4)
    h = h + h.conj().T
    e = (h @ h) / (np.abs(h @ h).sum() * 2)
    return [e * scale, (np.eye(4) / 2) * scale]


def test_format_float_random_sweep():
    rng = np.random.Generator(np.random.Philox(1))
    values = rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, size=1000)
    for x in values:
        assert _bits(float(format_float(x))) == _bits(float(x))
    # The same values, as effect entries, through effect_set_to_json and parse_effect_set.
    for start in range(0, 1000 - 32, 32):
        for scale in (1.0, 2.0**-500, 2.0**-1000, 2.0**-1060):
            es = build_effect_set(_effects_from(values[start:start + 32] / 10.0**30, scale))
            back = parse_effect_set(effect_set_to_json(es))
            for a, b in zip(back.matrices, es.matrices):
                assert a.tobytes() == b.tobytes()


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1.0, 1e16, 1e22,
    1.7976931348623157e308, -1.7976931348623157e308, -1.0, 1 / 3,
]


def test_matrix_fragment_matches_the_entry_renderer():
    values = np.array(_EDGE_VALUES)
    edge = values[:, None] + 1j * values[None, :]
    rng = np.random.Generator(np.random.Philox(11))
    bits = np.frombuffer(rng.bytes(4 * 64 * 64 * 16), dtype=float)
    bits = np.where(np.isfinite(bits), bits, -0.0).view(complex).reshape(4, 64, 64)
    for m in [edge, edge.T, np.zeros((0, 0)), *bits]:
        text = _matrix_fragment(m)
        assert text == _reference_fragment(m)
        back = _parse_matrices([json.loads(text)], m.shape[0], ["m"])[0]
        assert back.view(np.uint64).tolist() == np.ascontiguousarray(m).view(np.uint64).tolist()


def test_matrix_to_lists_shape_and_values():
    m = np.array([[1.0, 2.0 + 3.0j], [0.0, -1.0j]])
    assert matrix_to_lists(m) == [[[1.0, 0.0], [2.0, 3.0]], [[0.0, 0.0], [0.0, -1.0]]]


def test_effect_set_json_is_valid_and_round_trips():
    es = generate_commuting_resolution(4, 3, seed=9)
    text = effect_set_to_json(es, meta={"flavor": "commuting-resolution", "seed": 9})
    doc = json.loads(text)
    assert doc["d"] == 4 and doc["n"] == 3
    assert doc["flavor"] == "commuting-resolution" and doc["seed"] == 9
    back = parse_effect_set(text)
    for a, b in zip(back.matrices, es.matrices):
        assert np.array_equal(a, b)
    assert back.normalization == es.normalization


def test_effect_set_json_is_deterministic():
    a = effect_set_to_json(generate_commuting_resolution(3, 2, seed=4), meta={"seed": 4})
    b = effect_set_to_json(generate_commuting_resolution(3, 2, seed=4), meta={"seed": 4})
    assert a == b


def test_operator_round_trip():
    rng = np.random.Generator(np.random.Philox(2))
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(parse_operator(operator_to_json(m)), m)
    with pytest.raises(ParseError):
        operator_to_json(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"d": 2, "n": 1}',
        '{"d": 2.5, "n": 1, "effects": []}',
        '{"d": 2, "n": true, "effects": []}',
        '{"d": 0, "n": 1, "effects": []}',
        '{"d": 2, "n": 2, "effects": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}',
        '{"d": 2, "n": 1, "effects": [[[[1,0],[0,0]]]]}',
        '{"d": 1, "n": 1, "effects": [[[[1,0,0]]]]}',
        '{"d": 1, "n": 1, "effects": [[[["x",0]]]]}',
    ],
)
def test_parse_effect_set_schema_errors(text):
    with pytest.raises(ParseError):
        parse_effect_set(text)


def test_parse_effect_set_invariant_errors_are_typed():
    non_hermitian = '{"d": 2, "n": 1, "effects": [[[[0.5,0],[1,0]],[[0,0],[0.5,0]]]]}'
    with pytest.raises(NotHermitian):
        parse_effect_set(non_hermitian)
    too_large = '{"d": 1, "n": 1, "effects": [[[[1.5,0]]]]}'
    with pytest.raises(SpectrumAboveOne):
        parse_effect_set(too_large)


def test_parse_operator_schema_errors():
    with pytest.raises(ParseError):
        parse_operator('{"d": 2}')
    with pytest.raises(ParseError):
        parse_operator('{"d": 2, "matrix": [[[1,0]]]}')


def test_file_round_trip(tmp_path):
    es = build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    path = tmp_path / "set.json"
    dump_effect_set(path, es, meta={"flavor": "manual"})
    back = load_effect_set(path)
    assert back.n == 2 and back.dim == 2

    op_path = tmp_path / "op.json"
    dump_operator(op_path, np.eye(2) * (1 / 3))
    assert np.array_equal(load_operator(op_path), np.eye(2) / 3)


def test_write_text_atomic_replaces_and_leaves_no_droppings(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "first")
    write_text_atomic(path, "second")
    assert path.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_write_text_atomic_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        write_text_atomic(path, "text")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_nonfinite_entries_are_parse_errors(entry):
    with pytest.raises(ParseError, match="finite"):
        parse_effect_set('{"d": 1, "n": 1, "effects": [[[[%s, 0]]]]}' % entry)
    with pytest.raises(ParseError, match="finite"):
        parse_operator('{"d": 1, "matrix": [[[0, %s]]]}' % entry)


def test_integer_over_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_effect_set('{"d": 1, "n": 1, "effects": [[[[%s, 0]]]]}' % ("1" * 5000))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_operator('{"d": 1, "matrix": [[[%s, 0]]]}' % ("1" * 5000))


def test_effect_set_parse_error_names_the_first_bad_entry_in_matrix_order():
    good, bad_late, bad_early = "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]", "[[[0, 0], [0, 0]], [[0, 0], [0, null]]]", "[[[0, 0]], [[0, 0], [0, 0]]]"
    text = '{"d": 2, "n": 3, "effects": [%s, %s, %s]}'
    with pytest.raises(ParseError, match=r"^effect 1 entry \(1, 1\) imaginary part must be a number, got None$"):
        parse_effect_set(text % (good, bad_late, bad_early))
    with pytest.raises(ParseError, match=r"^effect 1 row 0 must be a list of 2 entries$"):
        parse_effect_set(text % (good, bad_early, bad_late))


def _loop_or_error(obj, d):
    try:
        return _parse_matrix_entries(obj, d, "m")
    except ParseError as exc:
        return str(exc)


def _fast_or_error(obj, d):
    try:
        return _parse_matrices([obj], d, ["m"])[0]
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "obj",
    [
        [[[1, -0.0], [2**64 + 1, 0.5]], [[-0.0, 3], [1e-300, -(10**300)]]],
        [[[True, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, False], [0, 0]], [[0, 0], [0, 0]]],
        [[["1", 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[None, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, float("nan")]], [[0, 0], [0, 0]]],
        [[[0, 0], [float("inf"), 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 10**400]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0]]],
        [[[0, 0], [0, 0]]],
        [[[0, 0], [0, [0]]], [[0, 0], [0, 0]]],
        [[[0, 0], (0, 0)], [[0, 0], [0, 0]]],
        [{"a": 1, "b": 2}, [[0, 0], [0, 0]]],
        ["ab", [[0, 0], [0, 0]]],
        [[{"re": 0, "im": 0}, [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], "ab"], [[0, 0], [0, 0]]],
        [[[], [0, 0]], [[0, 0], [0, 0]]],
        [[[], []], [[], []]],
        [[[[0], 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[[0], [0]], [[0], [0]]], [[[0], [0]], [[0], [0]]]],
        [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]],
        [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],
        "rows",
    ],
)
def test_matrix_fast_path_matches_entry_loop(obj):
    # Same values bit for bit (signs of zero included), or the same ParseError text.
    fast, loop = _fast_or_error(obj, 2), _loop_or_error(obj, 2)
    if isinstance(loop, str):
        assert fast == loop
    else:
        assert fast.dtype == complex and fast.shape == (2, 2)
        assert np.array_equal(fast.view(float), loop.view(float))
        assert np.array_equal(np.signbit(fast.view(float)), np.signbit(loop.view(float)))


def test_parsed_negative_zero_keeps_its_sign():
    m = parse_operator('{"d": 1, "matrix": [[[-0.0, -0.0]]]}')
    assert np.signbit(m.real[0, 0]) and np.signbit(m.imag[0, 0])


def test_generated_file_parses_bit_exactly_through_the_fast_path():
    es = generate_commuting_resolution(16, 4, seed=3)
    back = parse_effect_set(effect_set_to_json(es))
    for a, b in zip(back.matrices, es.matrices):
        assert a.tobytes() == b.tobytes()


def _traced_peak(call, *args):
    """The call's result and the peak bytes it allocated beyond what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reading_and_writing_a_large_file_peak_at_a_small_multiple_of_its_text():
    # Read one matrix at a time and written with one join, each peaks near 2.0x the text (3.1 MB here).
    # Decoding the whole document first peaked at 3.6x, a second copy of the parsed stack in
    # build_effect_set at 2.4x, and copying each fragment into a line at 4.0x.
    text = effect_set_to_json(generate_commuting_resolution(64, 16, seed=4))
    es, parse_peak = _traced_peak(parse_effect_set, text)
    out, emit_peak = _traced_peak(effect_set_to_json, es)
    assert out == text
    assert parse_peak <= 2.25 * len(text), parse_peak / len(text)
    assert emit_peak <= 2.25 * len(text), emit_peak / len(text)


def _outcome(text):
    try:
        return [m.tobytes() for m in parse_effect_set(text).matrices]
    except ParseError as exc:
        return str(exc)


def test_documents_at_the_json_nesting_limit_parse_as_without_the_walk():
    # The least depth json.loads refuses when called from here, which is where parse_effect_set calls it.
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            lo = mid + 1
        except RecursionError:
            hi = mid
    templates = [
        '{"d": 1, "n": 1, "seed": %s, "effects": [[[[0.5, 0]]]]}',
        '{"d": 1, "n": 1, "effects": [%s]}',
        '{"d": 1, "n": 1, "effects": [[[[0.5, 0]]], %s]}',
    ]
    for depth in range(lo - 6, lo + 3):
        for template in templates:
            text = template % ("[" * depth + "]" * depth)
            with mock.patch.object(serialize, "_walk", return_value=None):
                decoded = _outcome(text)
            assert _outcome(text) == decoded, (depth, template)
