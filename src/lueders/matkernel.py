"""Dense complex-matrix kernel shared by the rest of the package.

Hermitian eigendecomposition, operator norms, numerical nullspaces, PSD square
roots, and orthonormal operator subspaces under the Hilbert-Schmidt inner
product tr(A†B).  Dimensions stay small (d ≤ 64, superoperators ≤ 4096), so
dense LAPACK routines via numpy are used throughout.

Each numerical kernel costs one factorization: ``nullspace`` takes one SVD,
of the triangular QR factor when the matrix is tall, and the fixed-point
space of a Lüders operation (in ``operation``) takes one Hermitian ``eigh``.
Both cut their spectrum by the same relative rule, ``_kernel_columns``.

Vectorization is column-stacking: vec(AXB) = (Bᵀ ⊗ A) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPositive, NotSquare
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "HermitianEigensystem",
    "OperatorSubspace",
    "SubspaceComparison",
    "as_complex_matrix",
    "frobenius_norm",
    "hermitian_defect",
    "hermitian_eigendecompose",
    "nullspace",
    "operator_norm",
    "orthonormalize",
    "sqrt_psd",
    "subspace_projector",
    "subspaces_equal",
    "sum_terms",
    "unvec",
    "vec",
]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquare(f"expected a matrix, got array of rank {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def hermitian_defect(a: np.ndarray) -> float:
    """Frobenius norm of M - M†."""
    return float(np.linalg.norm(a - a.conj().T))


def _require_hermitian(a: np.ndarray, tol: float) -> None:
    # Entries near the top of the double range would overflow both Frobenius
    # norms to inf, and inf > tol * inf is false.  Scaling the largest real or
    # imaginary part below 1 by a power of two is exact, so the verdict on
    # every other matrix stays bit for bit the same.
    big = float(np.abs(np.stack([a.real, a.imag])).max(initial=0.0))
    scaled = a * 2.0 ** -max(math.frexp(big)[1], 0)
    if hermitian_defect(scaled) > tol * np.linalg.norm(scaled):
        raise NotHermitian(f"asymmetry {hermitian_defect(a):.3e} exceeds {tol:g} * ‖M‖")


def operator_norm(m) -> float:
    """Largest singular value."""
    a = as_complex_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


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


@dataclass(frozen=True)
class HermitianEigensystem:
    """Eigenvalues ascending, eigenvectors as unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigendecompose(m, tol: Tolerances = DEFAULT) -> HermitianEigensystem:
    """Full eigensystem of a Hermitian matrix.

    Raises NotSquare / NotHermitian on malformed input and NoConvergence if
    the underlying solver gives up.
    """
    a = as_complex_matrix(m)
    _require_square(a)
    _require_hermitian(a, tol.hermitian)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermitianEigensystem(w, u)


def sqrt_psd(m, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Unique PSD square root; eigenvalue dust above -tol.psd is clipped to 0."""
    eig = hermitian_eigendecompose(m, tol)
    if eig.eigenvalues[0] < -tol.psd:
        raise NotPositive(f"eigenvalue {eig.eigenvalues[0]:.3e} below -{tol.psd:g}")
    w = np.clip(eig.eigenvalues, 0.0, None)
    root = (eig.eigenvectors * np.sqrt(w)) @ eig.eigenvectors.conj().T
    return (root + root.conj().T) / 2


def _kernel_columns(dist: np.ndarray, vectors: np.ndarray, tol: float) -> np.ndarray:
    """Columns of `vectors` whose distance to the kernel is at most tol·max(dist).

    dist[i] is the singular value that column i belongs to.  When max(dist) ≤
    tol the matrix counts as zero and the full identity basis is returned:
    rounding dust must not masquerade as structure, and every returned x then
    still satisfies ‖Mx‖ ≤ tol·‖x‖.
    """
    scale = float(dist.max())
    if scale <= tol:
        return np.eye(vectors.shape[0], dtype=complex)
    return vectors[:, dist <= tol * scale]


def nullspace(m, tol: float = DEFAULT.nullspace) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of M.

    One SVD: a tall M is first reduced to its square triangular QR factor R,
    which has the same right singular vectors, so no left singular vectors of
    M are ever formed.  Right singular vectors whose singular value falls at
    or below tol·σ_max are kept, together with every direction beyond the rank
    of a wide M; see `_kernel_columns` for the zero-matrix rule.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_complex_matrix(m)
    rows, cols = a.shape
    if a.size == 0:
        return np.eye(cols, dtype=complex)
    if rows > cols:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    dist = np.zeros(cols)
    dist[: s.size] = s
    return _kernel_columns(dist, vh.conj().T, tol)


@dataclass(frozen=True)
class OperatorSubspace:
    """Subspace of d×d operators with an orthonormal basis under tr(A†B)."""

    dim_hilbert: int
    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_vectors(cls, columns: np.ndarray, dim_hilbert: int) -> "OperatorSubspace":
        """Build from orthonormal d²-vectors (columns), unvectorizing each."""
        mats = tuple(unvec(columns[:, i], dim_hilbert) for i in range(columns.shape[1]))
        return cls(dim_hilbert, mats)


def orthonormalize(mats: Sequence[np.ndarray], drop_tol: float = DEFAULT.nullspace) -> list[np.ndarray]:
    """Orthonormal basis of the span under the Hilbert-Schmidt inner product tr(A†B).

    One thin SVD of the vectorized matrices stacked as columns; the left
    singular vectors whose singular value exceeds drop_tol (an absolute cut)
    are unvectorized and returned.
    """
    if not mats:
        return []
    d = np.shape(mats[0])[0]
    u, s, _ = np.linalg.svd(np.column_stack([vec(m) for m in mats]).astype(complex), full_matrices=False)
    return [unvec(u[:, i], d) for i in np.flatnonzero(s > drop_tol)]


def subspace_projector(s: OperatorSubspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, as a d²×d² matrix."""
    d2 = s.dim_hilbert**2
    if not s.basis:
        return np.zeros((d2, d2), dtype=complex)
    v = np.column_stack([vec(b) for b in s.basis])
    return v @ v.conj().T


@dataclass(frozen=True)
class SubspaceComparison:
    equal: bool
    distance: float


def subspaces_equal(s1: OperatorSubspace, s2: OperatorSubspace, tol: float = DEFAULT.subspace) -> SubspaceComparison:
    """Compare two operator subspaces by the Frobenius distance of their projectors."""
    if s1.dim_hilbert != s2.dim_hilbert:
        raise DimensionMismatch(f"subspaces live on dimensions {s1.dim_hilbert} and {s2.dim_hilbert}")
    distance = float(np.linalg.norm(subspace_projector(s1) - subspace_projector(s2)))
    return SubspaceComparison(distance <= tol, distance)
