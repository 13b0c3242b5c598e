"""JSON schemas for effect sets, operators, and reports.

Matrices serialize row-major; every entry is a two-element [re, im] array.
Effect-set and operator files render floats with 17 significant digits, which
is enough for the parsed doubles to reproduce the originals bit for bit, so a
generate/parse round trip is exact and repeated generation is byte-identical.

Effect-set file:   {"d": int, "n": int, ...optional metadata..., "effects": [matrix]}
Operator file:     {"d": int, "matrix": matrix}

An effect-set file is read one matrix at a time, each element of "effects" an array before json's
scanner reads the next, and written with one join of the header, matrix fragments and separators.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain

import numpy as np

from .effects import EffectSet, build_effect_set
from .errors import ParseError

__all__ = [
    "dump_effect_set",
    "dump_operator",
    "effect_set_to_json",
    "load_effect_set",
    "load_operator",
    "matrix_to_lists",
    "operator_to_json",
    "parse_effect_set",
    "parse_operator",
    "write_text_atomic",
]

_META_KEYS = ("flavor", "seed", "unit_fraction")
_SCAN = json.JSONDecoder().scan_once  # one JSON value at an index: (value, end), or StopIteration
_SPACE = json.decoder.WHITESPACE.match

# Largest Hilbert-space dimension and effect count a file may declare; `gen`
# caps d and n here too.  The commutator classification, read only by
# `validate` and `analyze`, forms n(n - 1)/2 commutators; with it `validate`
# takes about 0.8-1 s at d = n = 64 in a fresh process (one BLAS thread).
# An uncapped n would let a small file run for minutes.
DIM_LIMIT = 64


def _matrix_fragment(m: np.ndarray) -> str:
    """Rows of [re, im] pairs, each float with 17 significant digits (parses back bit-exactly).

    One format string renders a whole row.  Negative zero renders as "-0.0":
    JSON reads a bare "-0" as the integer 0.
    """
    a = np.ascontiguousarray(m, dtype=complex)
    row = "[" + ", ".join(["[%.17g, %.17g]"] * a.shape[1]) + "]"
    text = "[" + ", ".join([row % tuple(parts) for parts in a.view(float).tolist()]) + "]"
    return text.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")


def matrix_to_lists(m: np.ndarray) -> list:
    """Matrix as nested lists of [re, im] pairs, for embedding in json.dumps output."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def effect_set_to_json(es: EffectSet, meta: dict | None = None) -> str:
    """Serialize an effect set; metadata keys (flavor, seed, unit_fraction) are optional."""
    meta = meta or {}
    head = "".join(f'  "{key}": {json.dumps(meta[key])},\n' for key in _META_KEYS if key in meta)
    parts = [f'{{\n  "d": {es.dim},\n  "n": {es.n},\n{head}  "effects": [\n']
    for e in es.matrices:
        parts += ["    ", _matrix_fragment(e), ",\n"]
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def operator_to_json(m: np.ndarray) -> str:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"operator must be square, got shape {a.shape}")
    return "{\n" + f'  "d": {a.shape[0]},\n' + f'  "matrix": {_matrix_fragment(a)}\n' + "}\n"


def _as_int(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{what} must be an integer, got {obj!r}")
    return obj


def _as_float(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParseError(f"{what} must be a number, got {obj!r}")
    try:
        x = float(obj)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {obj!r}")
    return x


def _decode(text: str):
    """json.loads with each failure (JSONDecodeError, ValueError past the int digit limit, RecursionError) a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _as_matrix(obj):
    """A square list of k rows of finite [re, im] pairs as a (k, k) complex array; anything else unchanged.

    C-level passes check exact types and lengths (bool, an int subclass, is left to the entry loop);
    the parts are read as complex through a view, so -0.0 keeps its sign.
    """
    rows = obj if type(obj) is list and set(map(type, obj)) == {list} and set(map(len, obj)) == {len(obj)} else []
    entries = list(chain.from_iterable(rows))
    pairs = entries and set(map(type, entries)) == {list} and set(map(len, entries)) == {2}
    if pairs and set(map(type, chain.from_iterable(entries))) <= {int, float}:
        try:
            parts = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
        except OverflowError:  # an int beyond the double range
            return obj
        if np.isfinite(parts).all():
            return parts.view(complex).reshape(len(obj), len(obj))
    return obj


def _parse_matrices(objs: list, d: int, names: list[str]) -> np.ndarray:
    """(n, d, d) complex stack; a matrix `_as_matrix` leaves no d×d array goes to the loop, which names its first bad entry."""
    mats = map(_as_matrix, objs)
    return np.array([m if isinstance(m, np.ndarray) and len(m) == d else _parse_matrix_entries(m, d, name) for m, name in zip(mats, names)])


def _sequence(text: str, i: int, close: str, read) -> tuple[list, int]:
    """The items `read` from the JSON array or object whose opening bracket ends at text[i], and the index after `close`."""
    items, i = [], _SPACE(text, i).end()
    while text[i:i + 1] != close:
        if items and text[i:i + 1] != ",":
            raise StopIteration(i)
        item, i = read(text, _SPACE(text, i + 1).end() if items else i)
        items.append(item)
        i = _SPACE(text, i).end()
    return items, i + 1


def _member(text: str, i: int) -> tuple[tuple, int]:
    """One key and value of the top-level object: a scalar, or an "effects" array read one matrix at a time."""
    if text[i:i + 1] != '"':
        raise StopIteration(i)
    key, i = _SCAN(text, i)
    i = _SPACE(text, i).end()
    if text[i:i + 1] != ":":
        raise StopIteration(i)
    i = _SPACE(text, i + 1).end()
    if key == "effects" and text[i:i + 1] == "[":
        value, i = _sequence(text, i + 1, "]", _matrix_at)
    else:
        value, i = _SCAN(text, i)
        if isinstance(value, (list, dict)):
            raise StopIteration(i)
    return (key, value), i


def _matrix_at(text: str, i: int) -> tuple[np.ndarray, int]:
    obj, i = _SCAN(text, i)
    mat = _as_matrix(obj)
    if not isinstance(mat, np.ndarray):
        raise StopIteration(i)
    return mat, i


def _walk(text: str) -> dict | None:
    """A top-level object as ``json.loads`` decodes it, its "effects" read one matrix at a time; None if declined.

    json's C scanner reads each key and value and its whitespace rule skips the gaps; the last duplicate key wins.
    Declined, so that json's words and nesting limit decide: what json refuses, other containers, non-matrix elements.
    """
    try:
        i = _SPACE(text, 0).end()
        if text[i:i + 1] == "{":
            members, i = _sequence(text, i + 1, "}", _member)
            if _SPACE(text, i).end() == len(text):
                return dict(members)
    except (StopIteration, ValueError, RecursionError):
        pass
    return None


def _parse_matrix_entries(obj, d: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != d:
        raise ParseError(f"{what} must be a list of {d} rows")
    out = np.empty((d, d), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{what} row {i} must be a list of {d} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"{what} entry ({i}, {j}) must be a [re, im] pair")
            out[i, j] = complex(
                _as_float(entry[0], f"{what} entry ({i}, {j}) real part"),
                _as_float(entry[1], f"{what} entry ({i}, {j}) imaginary part"),
            )
    return out


def parse_effect_set(text: str) -> EffectSet:
    """Parse and validate an effect-set document.

    Schema violations raise ParseError; violations of the effect invariants
    (Hermiticity, spectrum bounds, subnormalization) propagate as their own
    typed errors from the validator.
    """
    doc = _walk(text) or _decode(text)  # here, not in the walk: json's nesting limit may count Python frames
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("d", "n", "effects"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    d = _as_int(doc["d"], "d")
    n = _as_int(doc["n"], "n")
    if d < 1 or n < 1:
        raise ParseError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if d > DIM_LIMIT:
        raise ParseError(f"d must be at most {DIM_LIMIT}, got {d}")
    if n > DIM_LIMIT:
        raise ParseError(f"n must be at most {DIM_LIMIT}, got {n}")
    effects = doc["effects"]
    if not isinstance(effects, list) or len(effects) != n:
        raise ParseError(f"effects must be a list of {n} matrices")
    mats = _parse_matrices(effects, d, [f"effect {i}" for i in range(n)])
    del doc, effects  # the matrices are in the stack; free them before classifying
    return build_effect_set(mats)


def parse_operator(text: str) -> np.ndarray:
    doc = _decode(text)
    if not isinstance(doc, dict) or "d" not in doc or "matrix" not in doc:
        raise ParseError('operator document needs keys "d" and "matrix"')
    d = _as_int(doc["d"], "d")
    if d < 1:
        raise ParseError(f"need d >= 1, got {d}")
    if d > DIM_LIMIT:
        raise ParseError(f"d must be at most {DIM_LIMIT}, got {d}")
    return _parse_matrices([doc["matrix"]], d, ["matrix"])[0]


def _read_text(path) -> str:
    """File contents as text; bytes that are not UTF-8 are a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc


def load_effect_set(path) -> EffectSet:
    return parse_effect_set(_read_text(path))


def load_operator(path) -> np.ndarray:
    return parse_operator(_read_text(path))


def write_text_atomic(path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partial output.

    The file gets the mode a plain ``open`` would give a new file (0o666 less
    the umask), not the 0o600 of the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)  # the only portable read of the umask sets it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_effect_set(path, es: EffectSet, meta: dict | None = None) -> None:
    write_text_atomic(path, effect_set_to_json(es, meta))


def dump_operator(path, m: np.ndarray) -> None:
    write_text_atomic(path, operator_to_json(m))
