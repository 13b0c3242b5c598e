"""Property tests: serialization round trips, the contraction bound, and the validate exit codes."""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lueders.cli import main  # noqa: E402
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
