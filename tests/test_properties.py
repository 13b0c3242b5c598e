"""Property tests: serialization round trips, the effect-set walk against json.loads, stacked validation, the commutator maximum, the contraction bound, and the validate exit codes."""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lueders import matkernel as mk  # noqa: E402
from lueders.cli import main  # noqa: E402
from lueders.effects import build_effect_set, generate_commuting_resolution, validate_effect  # noqa: E402
from lueders import serialize  # noqa: E402
from lueders.errors import DimensionMismatch, LuedersError, ParseError  # noqa: E402
from lueders.serialize import (  # noqa: E402
    effect_set_to_json,
    operator_to_json,
    parse_effect_set,
    parse_operator,
)
from lueders.witness import contraction_bound, contraction_threshold  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


def _run(argv):
    """Run the CLI in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def complex_matrices(draw):
    d = draw(st.integers(1, 6))
    parts = draw(st.lists(finite, min_size=2 * d * d, max_size=2 * d * d))
    return (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(d, d)


@PROPERTY
@given(complex_matrices())
def test_operator_json_round_trips_bit_exactly(m):
    back = parse_operator(operator_to_json(m))
    assert back.dtype == np.complex128
    assert back.view(np.uint64).tolist() == m.view(np.uint64).tolist()


@PROPERTY
@given(
    flavor=st.sampled_from(["commuting-resolution", "commuting-subnormalized", "noncommuting-resolution"]),
    d=st.integers(2, 5),
    n=st.integers(3, 4),
    seed=st.integers(0, 2**32),
    unit_fraction=st.sampled_from([0.0, 0.25, 0.4, 1.0]),
)
def test_gen_output_reemits_byte_identically(flavor, d, n, seed, unit_fraction):
    argv = ["gen", "--flavor", flavor, "--d", str(d), "--n", str(n), "--seed", str(seed)]
    if flavor == "commuting-subnormalized":
        argv += ["--unit-fraction", str(unit_fraction)]
    code, text = _run(argv)
    assert code == 0
    assert effect_set_to_json(parse_effect_set(text), json.loads(text)) == text


@st.composite
def scaled_effect_lists(draw):
    """n effects AA†/(tr(AA†)·√n), so Σ Eᵢ² ≤ I, all scaled by one power of two down to the subnormal range."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    scale = 2.0 ** -draw(st.sampled_from([0, 1, 400, 500, 520, 530]) | st.integers(0, 530))
    unit = st.floats(-1, 1, allow_nan=False)
    mats = []
    for _ in range(n):
        parts = draw(st.lists(unit, min_size=2 * d * d, max_size=2 * d * d))
        a = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(d, d)
        big = np.abs(a).max()
        a = np.eye(d) if big == 0 else a / big
        g = a @ a.conj().T
        mats.append((g + g.conj().T) / 2 / (np.trace(g).real * np.sqrt(n)) * scale)
    return mats


@PROPERTY
@given(scaled_effect_lists())
def test_max_commutator_norm_is_the_largest_pairwise_norm(mats):
    es = build_effect_set(mats)
    brute = max(
        (mk.operator_norm(a @ b - b @ a) for i, a in enumerate(es.matrices) for b in es.matrices[i + 1:]),
        default=0.0,
    )
    assert es.max_pairwise_commutator_norm == brute


_FAULTS = ("none", "none", "none", "asymmetric", "above-one", "below-zero", "non-finite", "non-square", "vector", "other-d")


@st.composite
def faulty_effect_lists(draw):
    """1-5 effects AA†/(tr(AA†)·√n) of one d, each scaled by s, some with one fault (an other-d one has
    d + 1), as arrays or nested lists, with the fault of each.  An asymmetric fault adds 0.5j·s, so
    that tiny matrices are tested too."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    unit = st.floats(-1, 1, allow_nan=False)
    mats, faults = [], []
    for _ in range(n):
        fault = draw(st.sampled_from(_FAULTS))
        s = draw(st.sampled_from([1.0, 1.0, 1e-170, 2.0**-1060]))
        k = d + 1 if fault == "other-d" else d
        parts = draw(st.lists(unit, min_size=2 * k * k, max_size=2 * k * k))
        a = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(k, k)
        g = a @ a.conj().T
        if s < 2.0**-1022:  # subnormal entries would round the Hermitian dust of g past HERMITIAN
            g = (g + g.conj().T) / 2
        t = np.trace(g).real
        m = g / (t * np.sqrt(n)) * s if t > 0 else np.zeros((k, k), dtype=complex)
        if fault == "asymmetric":
            m[0, -1] += 0.5j * s
        elif fault in ("above-one", "below-zero"):
            m = m + (1.5 if fault == "above-one" else -1.5) * np.eye(k)
        elif fault == "non-finite":
            m[-1, 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif fault == "non-square":
            m = np.hstack([m, m[:, :1]])
        elif fault == "vector":
            m = m[0]
        mats.append(m.tolist() if draw(st.booleans()) else m)
        faults.append(fault)
    return mats, faults


def _outcome(call):
    try:
        call()
    except Exception as exc:  # the class and the text are what is compared
        return type(exc), str(exc)
    return None


def _validate_in_order(mats):
    """validate_effect on each matrix in order, then the dimension check: the order build_effect_set reports."""
    dims = [validate_effect(m).dim for m in mats]
    for k in dims:
        if k != dims[0]:
            raise DimensionMismatch(f"effects of dimension {k} and {dims[0]} in one set")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(faulty_effect_lists())
def test_stacked_validation_raises_the_first_fault_in_effect_order(mats_and_faults):
    # Σ Eᵢ² ≤ I holds by the scaling, so a list without faults must build, at every scale.
    mats, faults = mats_and_faults
    expected = _outcome(lambda: _validate_in_order(mats))
    assert _outcome(lambda: build_effect_set(mats)) == expected
    assert (expected is None) == (set(faults) <= {"none", "other-d"} and len({np.shape(m) for m in mats}) == 1)
    if expected is None:
        for e, m in zip(build_effect_set(mats).effects, mats):
            alone = validate_effect(m)
            assert e.matrix.tobytes() == alone.matrix.tobytes()
            assert e.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert e.eigenvectors.tobytes() == alone.eigenvectors.tobytes()


sizes = st.integers(1, 10**6)


@PROPERTY
@given(n=sizes, m=sizes, p=st.integers(1, 2**62), q=st.integers(1, 2**62))
def test_contraction_bound_does_not_decrease_in_p(n, m, p, q):
    p, q = sorted((p, q))
    # One evaluation rounds its numerator (about p²) to a few ulps; divided by
    # 2(pm)², that is a few ulps of the limit 1/(2m²).  Beyond p ≈ 10⁹ the
    # exact increase between neighbouring p falls below that rounding.
    slack = 8 * sys.float_info.epsilon / (2 * m * m)
    assert contraction_bound(n, m, q) >= contraction_bound(n, m, p) - slack


@PROPERTY
@given(n=sizes, m=sizes, data=st.data())
def test_contraction_threshold_is_the_least_positive_p(n, m, data):
    t = contraction_threshold(n, m)
    assert contraction_bound(n, m, t) > 0
    if t > 1:
        below = data.draw(st.integers(1, t - 1))
        assert contraction_bound(n, m, below) <= 0
        assert contraction_bound(n, m, t - 1) <= 0


numbers = st.one_of(
    st.sampled_from([0, 0.5, 1.0, 1.5, -0.5, 1e-320, 1e200, 1e300, -1.7976931348623157e308]),
    st.integers(),
    st.floats(),
)
# The schema's key letters, JSON escapes and non-ASCII; a fixed alphabet also
# spares hypothesis building its Unicode tables, seconds per process.
strings = st.text(alphabet='dnefcts"\\ é\u2028\U0001d400', max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=40,
)


_pair = st.lists(numbers, min_size=2, max_size=2)
_matrix = {d: st.lists(st.lists(_pair, min_size=d, max_size=d), min_size=d, max_size=d) for d in (1, 2, 3)}
_effects = {(d, n): st.lists(_matrix[d], min_size=n, max_size=n) for d in (1, 2, 3) for n in (1, 2, 3)}


@st.composite
def effect_documents(draw):
    """Documents with the effect-set keys; d, n and the matrix shapes usually agree."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    doc = {
        "d": d if draw(st.booleans()) else draw(json_values),
        "n": n if draw(st.booleans()) else draw(json_values),
        "effects": draw(_effects[d, n]) if draw(st.booleans()) else draw(json_values),
    }
    if draw(st.booleans()):
        doc["seed"] = draw(json_values)
    return doc


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(json_values, effect_documents()))
@example({"d": 2, "n": 1, "effects": [[[[0, 0], [1e300, 0]], [[0, 0], [0, 0]]]]})
@example({"d": 2, "n": 1, "effects": [[[[0.5, 1e300], [0, 0]], [[0, 0], [0.5, 0]]]]})
def test_validate_never_exits_four(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        code, out = _run(["validate", path])
    assert code in (0, 1, 3)
    if code in (0, 1):
        report = _strict_json(out)
        assert report["valid"] is (code == 0)
        if code == 0:
            # an effect's entries are bounded by its operator norm, at most 1
            entries = np.array(doc["effects"], dtype=float)
            assert np.abs(entries[..., 0] + 1j * entries[..., 1]).max() <= 1 + 1e-9


_odd_leaves = st.sampled_from([True, False, None, float("nan"), float("-inf"), 10**400, -(10**309), "1", [0]])
_corruptions = ' ,:[]{}"-0.eE\ta\\\ufeff'
_finite_pair = st.lists(st.one_of(st.sampled_from([0, 0.5, -0.0, 5e-324]), st.integers(-(2**70), 2**70), finite), min_size=2, max_size=2)


@st.composite
def walkable_documents(draw):
    """A generated set, or square matrices of finite numbers, mostly d×d."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return json.loads(effect_set_to_json(generate_commuting_resolution(d, n, draw(st.integers(0, 99)))))
    k = d if draw(st.integers(0, 3)) else draw(st.integers(1, 3))
    matrix = st.lists(st.lists(_finite_pair, min_size=k, max_size=k), min_size=k, max_size=k)
    return {"d": d, "n": n, "effects": draw(st.lists(matrix, min_size=n, max_size=n))}


@st.composite
def effect_texts(draw):
    """Effect-set documents rendered by json.dumps in varied layouts, some with an odd leaf, a duplicate
    "effects" key, a BOM, trailing text, or truncated or with one character changed."""
    doc = draw(st.one_of(effect_documents(), walkable_documents()))
    node = doc["effects"]
    while isinstance(node, list) and node and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(node) - 1))
        if not isinstance(node[i], list) or draw(st.integers(0, 3)) == 0:
            node[i] = draw(_odd_leaves)
            break
        node = node[i]
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    separators = draw(st.sampled_from([None, (",", ":"), (", ", ": "), (" ,\n", " : ")]))
    text = json.dumps(doc, indent=indent, separators=separators)
    if draw(st.integers(0, 3)) == 0:
        first = draw(st.one_of(_effects[1, 1], json_values, walkable_documents().map(lambda doc: doc["effects"])))
        text = '{"effects": %s, %s' % (json.dumps(first), text[1:])
    change = draw(st.sampled_from(["none"] * 6 + ["truncate", "replace", "bom", "extra"]))
    if change == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif change == "replace":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(_corruptions)) + text[i + 1:]
    elif change == "bom":
        text = "\ufeff" + text
    elif change == "extra":
        text += draw(st.sampled_from([" 1", "}", ",", " \n\t", "{}"]))
    return text


def _as_lists(value):
    """A walked "effects" list with each array mapped back to nested [re, im] lists."""
    return [m.view(float).reshape(len(m), len(m), 2).tolist() for m in value]


def _walkable(key, value):
    """Whether the walk reads this member of a top-level object read with object_pairs_hook=tuple."""
    if key == "effects" and isinstance(value, list):
        return all(isinstance(serialize._as_matrix(m), np.ndarray) for m in value)
    return not isinstance(value, (list, tuple))


def _parsed(text):
    """Matrix bits and normalization, or the error class and message."""
    try:
        es = parse_effect_set(text)
    except LuedersError as exc:
        return type(exc), str(exc)
    return [m.tobytes() for m in es.matrices], es.normalization


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(effect_texts())
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]],]}')
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]],}')
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]]} {}')
@example('\ufeff{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]]}')
@example('[{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]]}]')
@example('{"d": 1, "n": 1, "effects": [[[[%s, 0]]]]}' % ("1" * 5000))
@example('{"d": 1, "n": 1, "seed": %s, "effects": [[[[0.5, 0]]]]}' % ("1" * 5000))
@example('{"d": 1, "n": 1, "effects": [%s]}' % ("[" * 100_000 + "]" * 100_000))
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]], "effects": [[[[0.25, 0]]]]}')
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]]], "effects": 5}')
@example('{"d": 1, "n": 1, "effects": [[[[0.5, 0]]], [[[true, 0]]]]}')
@example(' \t\n{ "d" :1 ,"n":\r1, "effects" : [ [ [ [ -0.0 , 1e-320 ] ] ] ] }\n ')
@example("{}")
def test_walk_reads_what_json_loads_reads(text):
    try:
        expected = json.loads(text)
    except (ValueError, RecursionError):
        # json refuses: the walk declines, and parse_effect_set raises _decode's own message
        assert serialize._walk(text) is None
        with pytest.raises(ParseError) as want:
            serialize._decode(text)
        with pytest.raises(ParseError) as got:
            parse_effect_set(text)
        assert str(got.value) == str(want.value)
        return
    walked = serialize._walk(text)
    if walked is None:
        # declined only for a top level that is no object, or for a member the walk does not read
        members = json.loads(text, object_pairs_hook=tuple)
        assert not isinstance(expected, dict) or not all(_walkable(k, v) for k, v in members)
    else:
        assert list(walked) == list(expected)
        for key, value in expected.items():
            if key == "effects" and isinstance(value, list):
                floats = json.loads(json.dumps(value), parse_int=float)  # a bool stays a bool
                assert json.dumps(_as_lists(walked[key])) == json.dumps(floats)  # the sign of zero included
            else:
                assert json.dumps(walked[key]) == json.dumps(value), key  # NaN included
    # the same outcome as decoding the whole document first
    with mock.patch.object(serialize, "_walk", return_value=None):
        decoded = _parsed(text)
    assert _parsed(text) == decoded
