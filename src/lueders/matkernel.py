"""Dense complex-matrix kernel shared by the rest of the package.

Hermitian eigendecomposition, operator norms, numerical nullspaces, and
orthonormal operator subspaces under the Hilbert-Schmidt inner product
tr(A†B), held and compared as d²×k column bases.  Dimensions stay small
(d ≤ 64), so dense LAPACK routines via numpy are used throughout; a failure
of one surfaces unwrapped as ``np.linalg.LinAlgError``.

``nullspace`` costs one SVD (real for a real matrix; the commutant folds its
tall system into a square QR factor first), and the fixed-point space of a
Lüders operation (in ``operation``) one real symmetric ``eigh`` of Φ in an
orthonormal basis of the Hermitian matrices, which has the eigenvalues of
the complex superoperator.  Both keep their kernel vectors by the same
relative rule, ``_kernel_columns``, at ``tolerances.NULLSPACE``.  The
verifiers do not use it: they prove the fixed-point count with a Cholesky,
or count eigenvalues, against an absolute margin.

A matrix argument is taken by `as_complex_matrix`, which also checks a d×d
shape for the callers that need one.  `_scaled` is the one exact scaling by a
power of two, up or down: the Hermitian check, the witness routes, the
commutator ordering and `_max_singular_value` (the one bounded σ_max of a
stack, for commutators, a state's commuting check and the probe images)
decide on its output, so they hold at every scale of the input.

Vectorization is column-stacking: vec(AXB) = (Bᵀ ⊗ A) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NotHermitian, NotSquare
from . import tolerances as tol

__all__ = [
    "OperatorSubspace",
    "SubspaceComparison",
    "as_complex_matrix",
    "hermitian_defect",
    "hermitian_eigendecompose",
    "nullspace",
    "operator_norm",
    "orthonormalize",
    "subspaces_equal",
    "sum_terms",
    "unvec",
    "vec",
]


def as_complex_matrix(m, d: int | None = None) -> np.ndarray:
    """Coerce to a 2-d complex array with finite entries; given d, it must be d×d, else DimensionMismatch."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquare(f"expected a matrix, got array of rank {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgument("matrix entries must be finite")
    if d is not None and a.shape != (d, d):
        raise DimensionMismatch(f"operator shape {a.shape} does not match dimension {d}")
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """(a·2⁻ᵉ, e), e the exponent that puts the largest real or imaginary part of a in [0.5, 1), or 0 for a zero matrix.

    A stack gets one e per matrix, in an array; one matrix gets an int, which ``math.ldexp``
    takes.  Norms of the scaled matrix neither underflow nor overflow, and scaling by a power
    of two is exact in the normal range, so decisions on it are the decisions on a, and a norm
    scales back exactly with ``ldexp(norm, e)``.
    """
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    # max and -min rather than |parts|.max(): no temporary the size of a
    e = np.frexp(np.maximum(parts.max(axis=(-2, -1), initial=0.0), -parts.min(axis=(-2, -1), initial=0.0)))[1]
    return np.ldexp(parts, -e[..., None, None]).view(complex), int(e) if e.ndim == 0 else e


def hermitian_defect(a: np.ndarray) -> float:
    """Frobenius norm of M - M†, taken on the `_scaled` M and scaled back: inf only past the double range."""
    scaled, e = _scaled(a)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled - scaled.conj().T), e))


def _asymmetric(a: np.ndarray) -> np.ndarray:
    """Whether ‖M - M†‖_F > HERMITIAN·‖M‖_F, decided on the `_scaled` M, for a matrix or each matrix of a stack."""
    scaled, _ = _scaled(a)
    defect = np.linalg.norm(scaled - np.swapaxes(scaled, -1, -2).conj(), axis=(-2, -1))
    return defect > tol.HERMITIAN * np.linalg.norm(scaled, axis=(-2, -1))


def _require_hermitian(a: np.ndarray) -> None:
    if _asymmetric(a):
        raise NotHermitian(f"asymmetry {hermitian_defect(a):.3e} exceeds {tol.HERMITIAN:g} * ‖M‖")


def operator_norm(m) -> float:
    """Largest singular value."""
    a = as_complex_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _max_singular_value(stack: np.ndarray, best: float = 0.0) -> float:
    """max(best, σ_max) over a stack of matrices A, with an SVD only for those that can beat both.

    Each matrix is `_scaled` by its own power of two, so a nonzero one has
    σ ≥ 0.5 and its bounds neither underflow nor overflow.  With M = A†A,
    ‖M²‖_F^¼ ≥ σ_max (Schatten-8) and ‖Ax‖ / ‖x‖ = (x†Mx / x†x)^½ ≤ σ_max
    (Rayleigh; x the largest column of M², and 0 for A = 0).  The bounds are
    scaled back, which rounds monotonically, and only the matrices whose upper
    bound, with margin 1e-8 for rounding, reaches both best (a caller's running
    maximum) and the largest lower bound get an SVD, of their unscaled bits; the
    batched SVD factors each matrix on its own, so this is bit for bit exact.
    """
    a, e = _scaled(stack)
    m = a.conj().transpose(0, 2, 1) @ a
    m2 = m @ m
    cols = np.linalg.norm(m2, axis=1)
    x = m2[np.arange(len(m2)), :, cols.argmax(axis=1), None]
    ax, xn = np.linalg.norm(a @ x, axis=(1, 2)), cols.max(axis=1)
    lower = np.ldexp(np.divide(ax, xn, out=np.zeros_like(ax), where=xn > 0), e)
    upper = np.ldexp(np.sqrt(np.sqrt(np.linalg.norm(cols, axis=1))) * (1 + 1e-8), e)
    keep = upper >= max(best, lower.max(initial=0.0) * (1 - 1e-8))
    return float(np.linalg.svd(stack[keep], compute_uv=False).max(initial=best))


def sum_terms(terms: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right accumulation, shared by every path that sums operator lists.

    Keeping one accumulation order makes independently computed sums of
    bit-identical terms bit-identical themselves.
    """
    return reduce(np.add, terms)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d×d matrix."""
    return np.asarray(v).reshape((d, d), order="F")


def hermitian_eigendecompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem (w, u) of a Hermitian matrix, as ``np.linalg.eigh`` returns it.

    w holds the eigenvalues in ascending order and the columns of the unitary
    u the matching eigenvectors.  Raises NotSquare / NotHermitian on malformed
    input, and LinAlgError from ``eigh`` itself.
    """
    a = as_complex_matrix(m)
    _require_square(a)
    _require_hermitian(a)
    return np.linalg.eigh(a)


def _kernel_columns(dist: np.ndarray, vectors: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Columns of `vectors` whose singular value dist is at most NULLSPACE·scale.

    scale defaults to max(dist).  For scale ≤ NULLSPACE the matrix counts as
    zero and the identity basis is returned, since rounding dust must not
    masquerade as structure, and every x then still satisfies
    ‖Mx‖ ≤ NULLSPACE·‖x‖.
    """
    if scale is None:
        scale = float(dist.max())
    if scale <= tol.NULLSPACE:
        return np.eye(vectors.shape[0], dtype=vectors.dtype)
    # C order: a BLAS product can round differently by the memory layout of its operands.
    return np.ascontiguousarray(vectors[:, dist <= tol.NULLSPACE * scale])


def nullspace(m, *, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of M, real (and spanning the complex kernel) for a real M.

    One SVD, whose right singular vectors are kept where their singular value
    falls at or below NULLSPACE·scale, together with every direction beyond
    the rank of a wide M; see `_kernel_columns` for the zero-matrix rule.  A
    tall M gets the thin SVD; the commutant, the one caller in the package,
    passes its square QR factor, which has the same right singular vectors.

    scale defaults to σ_max(M).  A caller that passes only some columns of a
    larger system passes that system's norm (or a bound on it): dropping
    columns can only lower σ_max, and a cut taken against the smaller value
    would count rounding dust of the kept columns as structure.
    """
    a = as_complex_matrix(m) if np.iscomplexobj(m) else as_complex_matrix(m).real
    rows, cols = a.shape
    if a.size == 0:
        return np.eye(cols, dtype=a.dtype)
    _, s, vh = np.linalg.svd(a, full_matrices=rows <= cols)
    dist = np.zeros(cols)
    dist[: s.size] = s
    return _kernel_columns(dist, vh.conj().T, scale)


@dataclass(frozen=True)
class OperatorSubspace:
    """Operator subspace: column j of the d²×k `vectors` is vec(Bⱼ), Bⱼ orthonormal under tr(A†B)."""

    dim_hilbert: int
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def orthonormalize(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the span under the Hilbert-Schmidt inner product tr(A†B).

    One thin SVD of the vectorized matrices stacked as columns; the left
    singular vectors whose singular value exceeds NULLSPACE (here an absolute
    cut) are unvectorized and returned.
    """
    if not mats:
        return []
    d = np.shape(mats[0])[0]
    u, s, _ = np.linalg.svd(np.column_stack([vec(m) for m in mats]).astype(complex), full_matrices=False)
    return [unvec(u[:, i], d) for i in np.flatnonzero(s > tol.NULLSPACE)]


@dataclass(frozen=True)
class SubspaceComparison:
    equal: bool
    distance: float


def subspaces_equal(s1: OperatorSubspace, s2: OperatorSubspace) -> SubspaceComparison:
    """Compare two operator subspaces by the Frobenius distance of their projectors (cut SUBSPACE).

    With G = V₁†V₂, ‖P₁ - P₂‖²_F = ‖V₁ - V₂G†‖²_F + ‖V₂ - V₁G‖²_F, a sum of
    squares that cannot go negative, unlike k₁ + k₂ - 2‖G‖²_F, which cancels.
    """
    if s1.dim_hilbert != s2.dim_hilbert:
        raise DimensionMismatch(f"subspaces live on dimensions {s1.dim_hilbert} and {s2.dim_hilbert}")
    v1, v2 = s1.vectors, s2.vectors
    g = v1.conj().T @ v2
    distance = float(np.hypot(np.linalg.norm(v1 - v2 @ g.conj().T), np.linalg.norm(v2 - v1 @ g)))
    return SubspaceComparison(distance <= tol.SUBSPACE, distance)
