"""The Lüders operation Φ(B) = Σᵢ EᵢBEᵢ and its structure theory.

This module computes the operation itself, the fixed-point subspace
{B : Φ(B) = B}, the commutant of the effect set, and the joint eigenspace
decomposition of commuting sets.  On top of those sits one fixed-point check.
For F = Σ Eᵢ² ≤ I, I - S = [I - ½(Fᵀ⊗I + I⊗F)] + ½ Σᵢ Cᵢ†Cᵢ with both terms
positive semidefinite (S = Σ Eᵢᵀ⊗Eᵢ the superoperator, Cᵢ = Eᵢᵀ⊗I - I⊗Eᵢ the
matrix of B ↦ BEᵢ - EᵢB), so the fixed-point space is
{X ∈ {Eᵢ}′ : (I - F)X = 0}, whether or not the effects commute: a commutant
element commutes with F, so (I - F)X = 0 says X lives on the eigenvalue-1
eigenspace of F.  Reports carry the label "3.1" for resolutions (F = I: the
target is the commutant) and "3.2" for strictly subnormalized sets.

No route here forms the complex d²×d² matrix S.  Φ maps Herm(d) into itself
because Φ(X)† = Φ(X†), and in Hermitian coordinates it is a real symmetric
d²×d² matrix R with the eigenvalues of S.  The commutant is solved in the same
real coordinates, on the eigenblocks of one random element of the algebra: a
block on which every effect is scalar and which no effect couples to another
gives its matrix units, and the Cᵢ are never stacked.  `verify` decides the
theorem from the residual ‖Φ(Q) - Q‖_F of the target basis Q and a Cholesky
certificate, both in the eigenframe of the commutant, where its free blocks
are coordinate axes and Q is never written.  Where the frame's blocks hold
the effects to within τ, a pair of free blocks is one number and only the
other blocks are factored.  A set it refuses takes one ``eigvalsh`` of R.
`analyze` reports the fixed-point count of that same decision, and the
commutant's dimension from its frame without writing its basis.
`fixed_point_space` takes the full ``eigh`` of R for the basis itself and
serves as the eigenvector oracle.  Every function takes the `EffectSet`, whose
exactly Hermitian matrices Φ, R, S and the commutant all read, and applies Φ
to d×d matrices through `_phi`; `LuedersOperation` keeps `apply` for library
users and builds S as the dense `superoperator` reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk, tolerances as tol
from .effects import EffectSet, Normalization, _hermitian_part, _validated
from .errors import VIOLATIONS, InvalidArgument, Undecided
from .rng import philox_generator

__all__ = [
    "ChannelNormCertificate",
    "JointBlock",
    "LuedersOperation",
    "NagySolution",
    "TheoremReport",
    "channel_norm",
    "commutant",
    "fixed_point_space",
    "is_undisturbed_state",
    "joint_eigenspaces",
    "nagy_solve",
    "verify_resolution_fixed_points",
    "verify_subnormalized_fixed_points",
]


class LuedersOperation:
    """B ↦ Σᵢ EᵢBEᵢ for a finite effect set."""

    def __init__(self, effect_set: EffectSet):
        self.effect_set = effect_set

    def apply(self, b) -> np.ndarray:
        return _phi(self.effect_set.matrices, mk.as_complex_matrix(b, self.effect_set.dim))

    @property
    def superoperator(self) -> np.ndarray:
        """Matrix of the operation under column-stacking: Σᵢ Eᵢᵀ ⊗ Eᵢ, built on each read.

        The dense complex reference: no route of the package reads it, and the
        tests hold `fixed_point_space` (its real Hermitian-coordinate form) and
        `nagy_solve` (conjugate gradients on Φ) against it.
        """
        return mk.sum_terms(np.kron(e.T, e) for e in self.effect_set.matrices)


def _phi(matrices, b: np.ndarray) -> np.ndarray:
    """Σᵢ (EᵢB)Eᵢ, summed left to right, for one d×d matrix B or a stack of them.

    The terms come from a generator, so at most one of them is alive besides
    the running sum: a list of stacked terms would hold all n at once.  The
    right product of a stack is one tall GEMM of its rows, which gives the
    bits of the per-matrix products.
    """
    return mk.sum_terms(((e @ b).reshape(-1, b.shape[-1]) @ e).reshape(b.shape) for e in matrices)


def _hermitian_coordinates(matrices, off: np.ndarray | None = None) -> np.ndarray:
    """The real symmetric d²×d² matrix R of Φ on Herm(d), which has exactly the eigenvalues of S.

    The Eᵢ are Hermitian, so Φ(X)† = Φ(X†) and Fix = (Fix ∩ Herm) ⊕ i·(Fix ∩ Herm).
    A real d×d matrix Y stands for the Hermitian X = sym(Y) + i·antisym(Y).
    That map is an isometry onto Herm(d): it sends the matrix units to E_pp
    and (E_pq + E_qp)/2 ± i(E_pq - E_qp)/2, a rotation of the orthonormal
    basis {E_pp, (E_pq + E_qp)/√2, i(E_pq - E_qp)/√2}.  In these coordinates Φ
    is R = Re S + (Im S)·K, with S = Σ Eᵢᵀ⊗Eᵢ the superoperator and K the
    swap vec(Y) ↦ vec(Yᵀ).  The entries of S are a reshuffle of the product
    T = Σᵢ vec(Eᵢ)vec(Eᵢ)ᵀ, so R is read off T one row block at a time: no
    Kronecker product and no complex d²×d² array is formed.  With a d×d mask
    off, only the rows and columns of the coordinates (p, q) where it holds
    are written: a principal submatrix, without the rest of R.
    """
    e = np.asarray(matrices)
    d = e.shape[-1]
    flat = e.reshape(len(e), d * d)
    off = np.ones((d, d), dtype=bool) if off is None else off
    cols = np.flatnonzero(off)
    r = np.empty((cols.size, cols.size))
    block = np.empty((d, d, d))
    start = 0
    for i in range(d):
        # Positions (i, j) in row-major order.  t[k, l, j] = Σ E[i, k]·E[l, j] is S at row (i, j),
        # column (k, l), and R there is Re t[k, l, j] + Im t[l, k, j].
        t = (e[:, i, :].T @ flat).reshape(d, d, d)
        np.add(t.real.transpose(2, 0, 1), t.imag.transpose(2, 1, 0), out=block)
        stop = start + np.count_nonzero(off[i])
        block.reshape(d, d * d)[off[i]].take(cols, axis=1, out=r[start:stop], mode="clip")
        start = stop
    return r


def _hermitian(mask: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X = sym(Y) + i·antisym(Y) for each column of c, the Y_pq where the d×d mask holds (row-major; Y = 0 elsewhere)."""
    y = np.zeros((c.shape[1],) + mask.shape)
    y[:, mask] = c.T
    yt = np.swapaxes(y, -1, -2)
    return (y + yt) / 2 + 1j * ((y - yt) / 2)


def fixed_point_space(effect_set: EffectSet) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : Φ(B) = B}: the eigenvalue-1 cluster of Φ in Hermitian coordinates.

    One real ``eigh`` of R (`_hermitian_coordinates`) gives the singular
    values |w - 1| of R - I with their vectors, the relative cut of
    `matkernel.nullspace` applies unchanged, and each kept Y maps back to
    vec(X).  No product route calls it: `verify` and `analyze` read no
    eigenvector of R, and this eigenvector route stays as their oracle.
    """
    d = effect_set.dim
    w, v = np.linalg.eigh(_hermitian_coordinates(effect_set.matrices))
    x = _hermitian(np.ones((d, d), dtype=bool), mk._kernel_columns(np.abs(w - 1.0), v))
    # x.transpose(2, 1, 0)[j, i, m] is entry (i, j) of Xₘ, so its reshape has columns vec(Xₘ)
    return mk.OperatorSubspace(d, x.transpose(2, 1, 0).reshape(d * d, -1))


@dataclass(frozen=True)
class _Frame:
    """The commutant in the eigenbasis u of H (see `commutant`), before any basis is written.

    ets stacks Ẽᵢ = u†Eᵢu, label is the H-block of each column of u, free the
    blocks whose matrix units join unsolved, lam the mean diagonal λᵢ,b of Ẽᵢ
    on each block, and y spans the kernel in the real coordinates Y_pq (see
    `_hermitian`) of the others.
    """

    u: np.ndarray
    ets: np.ndarray
    label: np.ndarray
    free: np.ndarray
    lam: np.ndarray
    y: np.ndarray

    @property
    def dim(self) -> int:
        return int((np.bincount(self.label)[self.free] ** 2).sum()) + self.y.shape[1]

    def on(self, keep: np.ndarray) -> np.ndarray:
        """The d×d mask of the coordinates (p, q) that lie in one block where keep holds."""
        return (self.label[:, None] == self.label) & keep[self.label, None]


def _commutant_frame(effect_set: EffectSet) -> _Frame:
    """The blocks, free blocks and solved kernel of `commutant`, with no basis written."""
    d = effect_set.dim
    mats = effect_set.matrices
    c = philox_generator(0).standard_normal(len(mats))
    h = mk.sum_terms(ci * e for ci, e in zip(c, mats))
    w, u = np.linalg.eigh(h)
    ets = np.array([u.conj().T @ e @ u for e in mats])
    first = np.diff(w, prepend=-np.inf) > tol.ELEMENT_GAP * np.abs(w).max()  # column of u that opens a block
    starts, label = np.flatnonzero(first), np.cumsum(first) - 1
    scale = float(np.linalg.norm([e.eigenvalues[-1] - e.eigenvalues[0] for e in effect_set.effects]))
    lam = np.add.reduceat(ets.diagonal(0, 1, 2), starts, axis=1) / np.bincount(label)
    sq = np.abs(ets - lam[:, label, None] * np.eye(d)) ** 2
    coupling = np.add.reduceat(sq.sum(axis=(0, 1)), starts)
    free = (2.0 * np.sqrt(coupling) <= tol.NULLSPACE * scale) | (scale <= tol.NULLSPACE)
    # unknown k is Y_pq, p = rows[k] and q = cols[k], q running fastest within a block
    rows, cols = np.nonzero((label[:, None] == label) & ~free[label, None])
    k = np.arange(rows.size)
    factor = np.zeros((0, k.size))
    for et in ets if k.size else ():
        # t[r, s, k] is coordinate Y_rs of i[Ẽ, X] for the X of unknown k, X = ((1 + i)E_pq + (1 - i)E_qp)/2
        t = np.zeros((d, d, k.size))
        t[:, cols, k] = -et.imag[:, rows]
        t[rows, :, k] += et.imag[cols, :]
        t[:, rows, k] += et.real[:, cols]
        t[cols, :, k] -= et.real[rows, :]
        factor = np.linalg.qr(np.vstack([factor, t.reshape(d * d, k.size)]), mode="r")
    return _Frame(u, ets, label, free, lam.real, mk.nullspace(factor, scale=scale))


def commutant(effect_set: EffectSet) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : [B, Eᵢ] = 0 for all i}.

    Random-element reduction (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27, 2010): every B in the commutant commutes with
    H = Σ cᵢEᵢ, so in the eigenbasis u of H it is block-diagonal on the
    eigenspaces of H.  The cᵢ are one fixed Philox draw (seed 0).
    Neighbouring eigenvalues of H at most ELEMENT_GAP·‖H‖ apart share a block;
    merging blocks only enlarges the search space.  The cut is NULLSPACE·scale,
    scale = (Σᵢ (λ_max(Eᵢ) - λ_min(Eᵢ))²)^½ a bound on the norm of the
    unrestricted system [Cᵢ]: against the smaller norm of the restricted one,
    eigenvector dust of H would count as structure.  Block b is free if
    scale ≤ NULLSPACE (the zero rule of `matkernel.nullspace`), or if
    2·(Σᵢ ‖Dᵢ[:, b]‖²_F)^½ is at most the cut, where Dᵢ = Ẽᵢ - λᵢ,b·I,
    Ẽᵢ = u†Eᵢu and λᵢ,b is its mean diagonal entry on b.  Ẽᵢ is Hermitian to
    rounding, so ‖[Ẽᵢ, Y]‖_F = ‖DᵢY - YDᵢ‖_F ≤ 2‖Dᵢ[:, b]‖_F for every unit Y
    on b, and its k_b² matrix units u·E_pq·u† join the basis unsolved.  The
    other blocks are solved for the K = Σ k_b² real coordinates Y_pq of
    `_hermitian_coordinates`: X ↦ i[Ẽᵢ, X] maps Herm(d) into itself and the
    commutant is closed under †, so the complex system has the same singular
    values.  Each effect's real d²×K block, the coordinates of i[Ẽᵢ, X], is
    folded at once into a running K×K QR factor (memory O(d²·K) whatever n
    is), one SVD of it in `matkernel.nullspace` gives the kernel, and each
    vector maps back through B = uXu†, written once, free columns first; the
    verifiers read the frame.  QR and SVD are independent of their Cholesky
    and ``eigvalsh`` of Φ, so they never compare a computation with itself.
    """
    frame = _commutant_frame(effect_set)
    d, u = effect_set.dim, frame.u
    rows, cols = np.nonzero(frame.on(frame.free))
    # x[j, i, m] is entry (i, j) of basis matrix m, so x.reshape(d², dim) has columns vec(·)
    x = np.empty((d, d, rows.size + frame.y.shape[1]), dtype=complex)
    np.multiply(u.conj()[:, cols][:, None], u[:, rows], out=x[:, :, : rows.size])
    x[:, :, rows.size :] = (u @ _hermitian(frame.on(~frame.free), frame.y) @ u.conj().T).transpose(2, 1, 0)
    return mk.OperatorSubspace(d, x.reshape(d * d, -1))


# ---------------------------------------------------------------------------
# joint eigenstructure of commuting sets


@dataclass(frozen=True)
class JointBlock:
    """A maximal subspace on which every effect acts as a scalar.

    values[i] is the eigenvalue of effect i on this block; basis holds
    orthonormal columns spanning it.
    """

    values: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def joint_eigenspaces(effect_set: EffectSet) -> tuple[JointBlock, ...]:
    """Iteratively refine eigenspace clusters across all effects of a commuting set.

    Blocks are ordered lexicographically by their eigenvalue tuples (ascending
    per effect), which makes the decomposition deterministic.  The commutant
    is the direct sum of the full matrix algebras on the blocks, so
    Σ dⱼ² over the block dimensions dⱼ equals dim {Eᵢ}′.  A non-commuting
    set raises InvalidArgument.
    """
    if not effect_set.commuting:
        raise InvalidArgument(
            f"largest pairwise commutator norm {effect_set.max_pairwise_commutator_norm:.3e}"
        )
    d = effect_set.dim
    bases: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for e in effect_set.matrices:
        refined: list[np.ndarray] = []
        for v in bases:
            if v.shape[1] == 1:  # a one-dimensional block cannot split
                refined.append(v)
                continue
            c = v.conj().T @ e @ v
            w, wv = np.linalg.eigh(_hermitian_part(c))
            # maximal runs of ascending eigenvalues with consecutive gaps at most CLUSTER
            refined += [v @ part for part in np.split(wv, np.flatnonzero(np.diff(w) > tol.CLUSTER) + 1, axis=1)]
        bases = refined
    blocks = []
    for v in bases:
        vals = np.array(
            [float(np.real(np.trace(v.conj().T @ e @ v)) / v.shape[1]) for e in effect_set.matrices]
        )
        blocks.append(JointBlock(vals, v))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# fixed-point verifiers


@dataclass(frozen=True)
class TheoremReport:
    """Plain-data outcome of a fixed-point space comparison.

    theorem is the wire label of the claim checked: "3.1" for a resolution
    (target {Eᵢ}′), "3.2" for any strictly subnormalized set (target
    {X ∈ {Eᵢ}′ : (I - F)X = 0}, F = Σ Eᵢ²).  target_dim is k, the dimension
    of the target; distance is the residual ρ = ‖Φ(Q) - Q‖_F of its
    orthonormal basis Q, taken in the commutant's eigenframe; fixed_dim
    counts the eigenvalues of Φ within τ = max(3ρ, floor) of 1.
    """

    theorem: str
    fixed_dim: int
    target_dim: int
    distance: float
    verdict: bool


# Entries per chunk of the residual's d×d stacks: 8 MB of complex128 per array.
_RESIDUAL_CHUNK = 2**19


def _residual(ets, on: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(‖Φ(Q) - Q‖_F, maxⱼ ‖Φ(Xⱼ) - Xⱼ‖_F) in the frame of ets for the target (on, v) of `_target`.

    Q, never written, is E_pq where on holds, Φ(E_pq) = Σᵢ Ẽᵢ[:, p]Ẽᵢ[q, :], then the X of each column of v.
    A chunk is freed before the next is formed, and its norms are taken an eighth of it at a time.
    """
    step = max(1, _RESIDUAL_CHUNK // on.size)
    sub = max(1, step // 8)
    rows, cols = np.nonzero(on)
    norms = [np.zeros(0)]
    for j in range(0, rows.size, step):
        p, q = rows[j : j + step], cols[j : j + step]
        x = np.matmul(ets[:, :, p].transpose(2, 1, 0), ets[:, q, :].transpose(1, 0, 2))
        x[np.arange(p.size), p, q] -= 1.0
        norms += [np.linalg.norm(x[s : s + sub], axis=(1, 2)) for s in range(0, len(x), sub)]
        del x
    for j in range(0, v.shape[1], step):
        x = _hermitian(~on, v[:, j : j + step])
        x = _phi(ets, x) - x
        norms += [np.linalg.norm(x[s : s + sub], axis=(1, 2)) for s in range(0, len(x), sub)]
        del x
    norms = np.concatenate(norms)
    return float(np.linalg.norm(norms)), float(norms.max(initial=0.0))


# `_cholesky_in_place`: order of the diagonal blocks (and rows per update), rows per substitution step.
_BLOCK, _PANEL = 128, 16


def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the upper triangle of the symmetric a with U, UᵀU = a; LinAlgError unless a ≻ 0.

    Right-looking and blocked, so no second N×N array exists: ``np.linalg.cholesky`` on each diagonal
    block, forward substitution on the panel beside it, matrix products on the trailing upper triangle.
    Each entry is still aᵢⱼ less a sum of products over a diagonal entry, the form Demmel's bound covers.
    """
    n = a.shape[0]
    for j in range(0, n, _BLOCK):
        e = min(j + _BLOCK, n)
        u = np.linalg.cholesky(a[j:e, j:e].T).T  # reads the upper triangle
        a[j:e, j:e] = u
        if e == n:
            return
        p = a[j:e, e:]  # solves Uᵀ·P = A[j:e, e:] in place
        for r in range(0, e - j, _PANEL):
            t = min(r + _PANEL, e - j)
            p[r:t] -= u[:r, r:t].T @ p[:r]
            for c in range(r, t):
                p[c] -= u[r:c, c] @ p[r:c]
                p[c] /= u[c, c]
        for i in range(e, n, _BLOCK):
            a[i : i + _BLOCK, i:] -= p[:, i - e : i - e + _BLOCK].T @ p[:, i - e :]


def _certify(ets, on: np.ndarray, v: np.ndarray, tau: float) -> bool:
    """Whether one Cholesky proves that at most k eigenvalues of R̃ off the mask on reach 1 - τ.

    In the frame of ets (Ẽᵢ = u†Eᵢu, u unitary), M = (1 - τ)I - R̃ + 2VVᵀ on the N coordinates off the
    mask on, v N×k.  If M ≻ 0, every x that vanishes on the mask with Vᵀx = 0 has xᵀR̃x < (1 - τ)‖x‖²,
    so Courant–Fischer bounds the count by k for that principal submatrix, and by count(on) + k for R̃.
    That holds for any frame, mask and v; a poor choice only makes the Cholesky fail.  It runs on M - σI,
    σ = 4·(N + 1)·ε·(N + 2k), whose success proves M ≻ 0 (see `tolerances.SPECTRUM_FLOOR`).
    """
    m = _hermitian_coordinates(ets, ~on)
    n, k = v.shape
    np.negative(m, out=m)
    m.flat[:: n + 1] += 1.0 - tau - 4 * (n + 1) * np.finfo(float).eps * (n + 2 * k)
    for j in range(0, n if k else 0, _BLOCK):
        m[j : j + _BLOCK] += 2.0 * v[j : j + _BLOCK] @ v.T
    try:
        _cholesky_in_place(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _certify_blocks(effect_set: EffectSet, frame: _Frame, on, v, tau: float, r: float) -> bool:
    """Whether at most k = count(on) + v.shape[1] eigenvalues of R reach 1 - τ, proven on the H-block pairs of the frame.

    Bᵢ is the H-block diagonal of Ẽᵢ with each free block a replaced by λᵢ,ₐ·I, so Φ_B(X) = Σᵢ BᵢXBᵢ keeps the X
    on each block pair {a, b}: R_B is block diagonal over the pairs.  As Φ̃ - Φ_B = Σᵢ (Ẽᵢ - Bᵢ)·Ẽᵢ + Bᵢ·(Ẽᵢ - Bᵢ)
    and ‖Bᵢ‖ ≤ ‖Ẽᵢ‖ = ‖Eᵢ‖ (pinching and a mean diagonal entry are contractions: R. Bhatia, Matrix Analysis,
    1997, ch. IV), ‖R̃ - R_B‖₂ ≤ δ = 2·Σᵢ‖Ẽᵢ - Bᵢ‖_F·‖Eᵢ‖, and by Weyl it suffices that at most k eigenvalues
    of R_B reach 1 - τ - r - δ, r the rotation of R̃.  On two free blocks Φ_B is the scalar gₐᵦ = Σᵢ λᵢ,ₐλᵢ,ᵦ
    of multiplicity 2kₐkᵦ (kₐ² if a = b), rounded by at most nε·√(gₐₐgᵦᵦ); the kept (a, a) are count(on).
    A free a beside a non-free b maps X on a×b to X·Cₐ, Cₐ = Σᵢ λᵢ,ₐBᵢ[b]: the eigenvalues of Cₐ, each of
    multiplicity 2kₐ, from one ``eigvalsh`` within SPECTRUM_FLOOR·k_b·ε·‖Cₐ‖.  The pairs of non-free blocks
    form one group for `_certify` with V, which spans their (a, a).  All other pairs must lie below the cut.
    When δ > τ (as for non-commuting sets) the one group is the whole matrix.
    """
    label, free, lam = frame.label, frame.free, frame.lam
    b = np.where((label[:, None] == label) & ~frame.on(free), frame.ets, 0.0)
    p = np.flatnonzero(free[label])
    b[:, p, p] = lam[:, label[p]]
    delta = 2.0 * float(np.linalg.norm(frame.ets - b, axis=(1, 2)) @ [e.eigenvalues[-1] for e in effect_set.effects])
    if delta > tau:
        return _certify(frame.ets, on, v, tau + r)
    cut, g, eps = 1.0 - tau - r - delta, lam.T @ lam, np.finfo(float).eps
    kept = np.bincount(label[on.diagonal()], minlength=free.size) > 0
    if np.any(g[np.outer(free, free) & ~np.diag(kept)] >= cut - 2 * lam.shape[0] * eps * g.diagonal().max()):
        return False
    for a in np.flatnonzero(~free):
        w = np.linalg.eigvalsh(np.einsum("ia,ipq->apq", lam[:, free], b[:, label == a][:, :, label == a]))
        if np.any(w + tol.SPECTRUM_FLOOR * w.shape[-1] * eps * np.abs(w).max(initial=0.0) >= cut):
            return False
    p, solved = np.flatnonzero(~free[label]), np.outer(~free[label], ~free[label])
    return _certify(b[:, p[:, None], p], np.zeros((p.size, p.size), dtype=bool), v[solved[~on]], tau + r + delta)


def _target(effect_set: EffectSet, frame: _Frame) -> tuple[np.ndarray, np.ndarray]:
    """(on, v): the d×d mask of kept free coordinates and the N×k real solved coordinates off it, all for a resolution.

    A free block is scalar for F too and is kept when Σᵢ λᵢ,b² is within CLUSTER of 1; the kept solved
    combinations have singular value at most CLUSTER in the real [Re D; Im D] (rows interleaved by the float
    view), D = [vec((I - F̃)Xⱼ)]ⱼ, F̃ = u†Fu, which loses none: on the commutant X ↦ (I - F̃)X commutes with †.
    """
    keep, c = frame.free, frame.y
    if effect_set.normalization is not Normalization.RESOLUTION:
        keep = keep & (np.abs(1.0 - (frame.lam**2).sum(axis=0)) <= tol.CLUSTER)
        f = frame.u.conj().T @ effect_set.sum_of_squares @ frame.u
        deficit = (np.eye(effect_set.dim) - f) @ _hermitian(frame.on(~frame.free), c)
        _, s, vh = np.linalg.svd(deficit.view(float).reshape(-1, 2 * f.size).T, full_matrices=False)
        c = c @ vh[s <= tol.CLUSTER].T
    on = frame.on(keep)
    v = np.zeros((np.count_nonzero(~on), c.shape[1]))
    v[frame.on(~frame.free)[~on]] = c  # the solved coordinates c, placed among those off the mask
    return on, v


def _verify_fixed_points(effect_set: EffectSet, frame: _Frame | None = None) -> TheoremReport:
    """Decide Fix(Φ) = {X ∈ {Eᵢ}′ : (I - F)X = 0} (the commutant for a resolution) without an eigenvector.

    For X in the commutant Φ(X) = XF, so ‖(I - F)X‖_F = ‖Φ(X) - X‖_F; `_target` picks the basis Q.  By
    Kahan's residual bound (Parlett, The Symmetric Eigenvalue Problem, 1980, ch. 11) Φ has k eigenvalues
    within ‖Φ(Q) - Q‖₂ ≤ ρ = ‖Φ(Q) - Q‖_F of 1 (3ρ below leaves room for a Q orthonormal only to
    rounding), and fixed_dim counts the w ≥ 1 - τ, τ = max(3ρ, floor) with the floor read at ‖F‖ ≥ ‖Φ‖.
    `_certify_blocks` proves that at most k pass, adding the frame's rotation error r to τ; a set it
    refuses (false, Undecided, or a margin within rounding of τ) takes one ``eigvalsh`` of R with the same
    τ, accurate to the SPECTRUM_FLOOR, where eigenvectors would be accurate only to ε/gap (Davis & Kahan,
    SIAM J. Numer. Anal. 7, 1970).  A unit X in the commutant has ‖Φ(X) - X‖_F = ‖X(F - I)‖_F ≤
    ‖I - F‖₂, at most CLUSTER for a resolution and at most the kept singular value for "3.2", but ρ can
    reach √k·CLUSTER, so the cut reads the largest column residual ρ_max.  The verdict holds iff
    ρ_max ≤ CLUSTER and fixed_dim = k; if more than k pass, the next one cannot be told from 1:
    Undecided.  Residual and certificate share only the frame's Ẽᵢ, and the floor covers the rotation
    error of a ρ measured there (see `tolerances.SPECTRUM_FLOOR`); the fallback reads R under the given
    Eᵢ.  `analyze` passes the frame whose dimension it reports.  With no eigenvalue of F within CLUSTER
    of 1 the target is empty, and ‖Φ‖ ≤ ‖F‖ < 1 - τ - r proves fixed_dim = 0 with no frame and no R.
    """
    d = effect_set.dim
    theorem = "3.1" if effect_set.normalization is Normalization.RESOLUTION else "3.2"
    f_norm, eps = float(effect_set.sum_of_squares_eigenvalues[-1]), np.finfo(float).eps
    floor = tol.SPECTRUM_FLOOR * d * d * eps * f_norm
    rotation = 4 * d * eps * sum(float(e.eigenvalues[-1]) ** 2 for e in effect_set.effects)
    if f_norm < 1.0 - max(tol.CLUSTER, floor + rotation):
        return TheoremReport(theorem, 0, 0, 0.0, True)
    frame = frame or _commutant_frame(effect_set)
    on, v = _target(effect_set, frame)
    k = int(np.count_nonzero(on)) + v.shape[1]
    rho, rho_max = _residual(frame.ets, on, v)
    fixed = rho_max <= tol.CLUSTER
    tau = max(3.0 * rho, floor)
    if _certify_blocks(effect_set, frame, on, v, tau, rotation):
        return TheoremReport(theorem, k, k, rho, fixed)
    w = np.linalg.eigvalsh(_hermitian_coordinates(effect_set.matrices))
    fixed_dim = int(np.count_nonzero(w >= 1.0 - tau))
    if fixed and fixed_dim > k:
        raise Undecided(
            f"the target has dimension {k}, but eigenvalue {k + 1} of Φ has 1 - w = {1.0 - w[-k - 1]:.3e}, "
            f"not above τ = {tau:.3e}"
        )
    return TheoremReport(theorem, fixed_dim, k, rho, fixed and fixed_dim == k)


def verify_resolution_fixed_points(effect_set: EffectSet) -> TheoremReport:
    """Check that the fixed-point space of Φ equals the commutant of the effect set.

    Requires a resolution (Σ Eᵢ² = I), else raises InvalidArgument;
    commutativity is not required at finite dimension.  Raises Undecided when
    an eigenvalue of Φ beyond the commutant lies within τ of 1 (see
    `TheoremReport`).
    """
    if effect_set.normalization is not Normalization.RESOLUTION:
        raise InvalidArgument("the squares do not sum to the identity")
    return _verify_fixed_points(effect_set)


def verify_subnormalized_fixed_points(effect_set: EffectSet) -> TheoremReport:
    """Check that the fixed-point space equals {X ∈ {Eᵢ}′ : (I - F)X = 0}, F = Σ Eᵢ².

    Requires a strictly subnormalized set, commuting or not, else raises
    InvalidArgument.  When no eigenvalue of F lies within CLUSTER of 1 the
    target is the zero subspace, no commutant is built, and the fixed-point
    space must be trivial.  Raises Undecided as the resolution verifier does.
    """
    if effect_set.normalization is Normalization.RESOLUTION:
        raise InvalidArgument("the squares sum to the identity; use the resolution verifier")
    return _verify_fixed_points(effect_set)


# ---------------------------------------------------------------------------
# channel norm, the complete-disturbance equation, undisturbed states


@dataclass(frozen=True)
class ChannelNormCertificate:
    """‖Φ‖ together with the evidence that it is attained and never exceeded.

    value is ‖F‖ for F = Σ Eᵢ²; identity_image_norm is ‖Φ(I)‖ computed
    independently (equal to value bit for bit); max_probe_image_norm is the
    largest ‖Φ(B)‖ over random operators with unit operator norm.
    """

    value: float
    identity_image_norm: float
    max_probe_image_norm: float
    probes: int


def channel_norm(effect_set: EffectSet, probes: int = 200, seed: int = 0) -> ChannelNormCertificate:
    """Operator norm of Φ on B(H), which the identity attains: ‖Φ‖ = ‖Φ(I)‖ = ‖F‖.

    The probes are one batched draw of shape (probes, 2, d, d) from the Philox
    stream of seed, bit-equal to drawing the real and imaginary part of each
    probe one at a time.  Each probe is divided by its operator norm, Φ is applied to the
    whole stack at once, and `matkernel._max_singular_value` takes the largest image norm
    with an SVD only of the images that can hold it.  A negative probe count or seed raises InvalidArgument.
    """
    if probes < 0:
        raise InvalidArgument(f"probes must be >= 0, got {probes}")
    d = effect_set.dim
    value = mk.operator_norm(effect_set.sum_of_squares)
    identity_norm = mk.operator_norm(_phi(effect_set.matrices, np.eye(d, dtype=complex)))
    g = philox_generator(seed).standard_normal((probes, 2, d, d))
    b = g[:, 0] + 1j * g[:, 1]
    b = b / np.linalg.svd(b, compute_uv=False)[:, :1, None]
    images = _phi(effect_set.matrices, b)
    return ChannelNormCertificate(value, identity_norm, mk._max_singular_value(images), probes)


@dataclass(frozen=True)
class NagySolution:
    """Plain-data solution of Φ(X) + X = I with its diagnostics."""

    solution: np.ndarray
    residual: float
    half_identity_distance: float
    is_effect: bool


def nagy_solve(effect_set: EffectSet) -> NagySolution:
    """Solve the complete-disturbance equation Φ(X) + X = I by conjugate gradients.

    Under tr(A†B), Φ is exactly self-adjoint, and for a validated set its matrix S has
    S ⪰ 0 and ‖S‖ ≤ ‖F‖ ≤ 1, so A = I + Φ has spectrum in [1, 2]: the
    solution is unique and CG (Hestenes & Stiefel, J. Res. NBS 49, 1952)
    shrinks the A-norm error by at least (√2 - 1)/(√2 + 1) ≈ 0.17 per step.
    It starts from X₀ = 0 and stops once the recursive residual has
    ‖r‖_F ≤ ε·‖I‖_F, ε the float64 machine epsilon, or after d² steps.  For
    resolutions the solution is I/2.
    """
    d = effect_set.dim
    x = np.zeros((d, d), dtype=complex)
    r = p = np.eye(d, dtype=complex)
    rr = float(d)
    for _ in range(d * d):
        if np.sqrt(rr) <= np.finfo(float).eps * np.sqrt(d):
            break
        ap = p + _phi(effect_set.matrices, p)
        alpha = rr / np.vdot(p, ap).real
        x = x + alpha * p
        r = r - alpha * ap
        rr, rr_old = np.vdot(r, r).real, rr
        p = r + (rr / rr_old) * p
    residual = float(np.linalg.norm(_phi(effect_set.matrices, x) + x - np.eye(d)))
    half_distance = float(np.linalg.norm(x - np.eye(d) / 2))
    try:
        _validated(x[None])
        is_effect = True
    except VIOLATIONS:
        is_effect = False
    return NagySolution(x, residual, half_distance, is_effect)


def is_undisturbed_state(effect_set: EffectSet, rho) -> tuple[bool, bool]:
    """Return (is_fixed, commutes_with_all) for a density matrix.

    is_fixed holds when ‖Φ(ρ) - ρ‖_F ≤ COMMUTATOR; commutes_with_all when
    every ‖[ρ, Eᵢ]‖ ≤ COMMUTATOR.  The state must pass the rule of `validate_effect`
    (Hermitian within HERMITIAN·‖ρ‖_F, spectrum within [-PSD, 1 + PSD]) and
    satisfy |tr ρ - 1| ≤ COMMUTATOR; each failure raises InvalidArgument.
    For Lüders operations of resolutions the two verdicts agree.
    """
    mat = mk.as_complex_matrix(rho, effect_set.dim)
    try:
        _validated(mat[None])
    except VIOLATIONS as exc:
        raise InvalidArgument(f"state fails the effect check: {exc}") from exc
    if abs(float(np.real(np.trace(mat))) - 1.0) > tol.COMMUTATOR:
        raise InvalidArgument(f"trace {np.real(np.trace(mat)):.12f} is not 1")
    is_fixed = float(np.linalg.norm(_phi(effect_set.matrices, mat) - mat)) <= tol.COMMUTATOR
    mats = np.array(effect_set.matrices)
    commutes = mk._max_singular_value(mat @ mats - mats @ mat) <= tol.COMMUTATOR
    return is_fixed, commutes
