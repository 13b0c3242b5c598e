"""The Lüders operation Φ(B) = Σᵢ EᵢBEᵢ and its structure theory.

This module computes the operation itself, the fixed-point subspace
{B : Φ(B) = B}, the commutant of the effect set, and the joint eigenspace
decomposition of commuting sets.  On top of those sits one fixed-point check.
For F = Σ Eᵢ² ≤ I, I - S = [I - ½(Fᵀ⊗I + I⊗F)] + ½ Σᵢ Cᵢ†Cᵢ with both terms
positive semidefinite (S = Σ Eᵢᵀ⊗Eᵢ the superoperator, Cᵢ = Eᵢᵀ⊗I - I⊗Eᵢ the
matrix of B ↦ BEᵢ - EᵢB), so the fixed-point space is
{X ∈ {Eᵢ}′ : (I - F)X = 0}, whether or not the effects commute: a commutant
element commutes with F, so (I - F)X = 0 says X lives on the eigenvalue-1
eigenspace of F.  The commutant itself is solved on the eigenblocks of one
random element of the algebra and never stacks the Cᵢ.  Reports carry the
label "3.1" for resolutions (F = I: the target is the commutant) and "3.2"
for strictly subnormalized sets.

No route here forms the complex d²×d² matrix S: `fixed_point_space` takes one
real symmetric ``eigh`` of Φ on Herm(d), which Φ maps into itself because
Φ(X)† = Φ(X†), and `nagy_solve` applies Φ to d×d matrices.
`LuedersOperation.superoperator` builds S as the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk, tolerances as tol
from .effects import EffectSet, Normalization, _check_spectrum
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    IsResolution,
    NotCommuting,
    NotDensityMatrix,
    NotHermitian,
    NotResolution,
    SpectrumAboveOne,
    SpectrumBelowZero,
)
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

    @property
    def dim(self) -> int:
        return self.effect_set.dim

    def apply(self, b) -> np.ndarray:
        mat = mk.as_complex_matrix(b)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"operator shape {mat.shape} does not match dimension {self.dim}")
        return _phi(self.effect_set.matrices, mat)

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
    the running sum: a list of stacked terms would hold all n at once.
    """
    return mk.sum_terms((e @ b) @ e for e in matrices)


def fixed_point_space(op: LuedersOperation) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : Φ(B) = B}: the eigenvalue-1 cluster of Φ in Hermitian coordinates.

    The Eᵢ are Hermitian, so Φ(X)† = Φ(X†) and Fix = (Fix ∩ Herm) ⊕ i·(Fix ∩ Herm).
    A real d×d matrix Y stands for the Hermitian X = sym(Y) + i·antisym(Y).
    That map is an isometry onto Herm(d): it sends the matrix units to E_pp
    and (E_pq + E_qp)/2 ± i(E_pq - E_qp)/2, a rotation of the orthonormal
    basis {E_pp, (E_pq + E_qp)/√2, i(E_pq - E_qp)/√2}.  In these coordinates Φ
    is the real symmetric d²×d² matrix R = Re S + (Im S)·K, with S = Σ Eᵢᵀ⊗Eᵢ
    the superoperator and K the swap vec(Y) ↦ vec(Yᵀ), and R has exactly the
    eigenvalues of S.  The entries of S are a reshuffle of the one product
    T = Σᵢ vec(Eᵢ)vec(Eᵢ)ᵀ, so R is read off T and no Kronecker product is
    formed.  One real ``eigh`` of R gives the singular values |w - 1| of
    R - I with their vectors, the relative cut of `matkernel.nullspace`
    applies unchanged, and each kept Y maps back to vec(X).

    The effects enter through their Hermitian parts (E + E†)/2: the Hermitian
    part of S differs from the superoperator of those only by Σ Nᵢᵀ⊗Nᵢ, Nᵢ the
    non-Hermitian parts, which `validate_effect` bounds by HERMITIAN·‖Eᵢ‖_F.
    """
    d = op.dim
    e = np.array(op.effect_set.matrices)
    e = ((e + e.conj().transpose(0, 2, 1)) / 2).reshape(-1, d * d)
    # Positions (i, j) in row-major order.  t[i, k, l, j] = Σ E[i, k]·E[l, j] is S at row (i, j),
    # column (k, l), and R there is Re t[i, k, l, j] + Im t[i, l, k, j].
    t = (e.T @ e).reshape(d, d, d, d)
    r = np.empty((d, d, d, d))
    np.add(t.real.transpose(0, 3, 1, 2), t.imag.transpose(0, 3, 2, 1), out=r)
    del t
    w, v = np.linalg.eigh(r.reshape(d * d, d * d))
    y = mk._kernel_columns(np.abs(w - 1.0), v).reshape(d, d, -1)
    # x[j, i] = X[i, j], so x.reshape(d², k) holds the column-stacked vec(X)
    yt = y.transpose(1, 0, 2)
    x = np.empty(y.shape, dtype=complex)
    x.real = (yt + y) / 2
    x.imag = (yt - y) / 2
    return mk.OperatorSubspace(d, x.reshape(d * d, -1))


def commutant(effect_set: EffectSet) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : [B, Eᵢ] = 0 for all i}.

    Random-element reduction (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27, 2010): every B in the commutant commutes with
    H = Σ cᵢEᵢ, so in the eigenbasis u of H it is block-diagonal on the
    eigenspaces of H.  The cᵢ are one fixed Philox draw (seed 0).
    Neighbouring eigenvalues of H at most ELEMENT_GAP·‖H‖ apart share a block;
    merging blocks only enlarges the search space.  The unknowns are the
    entries Y_pq with p and q in one block, K = Σ k_b² of them.  Each effect
    contributes the d²×K block vec(ẼᵢY - YẼᵢ), Ẽᵢ = u†Eᵢu, folded at once into
    a running K×K QR factor of the stacked blocks, so memory stays O(d²·K)
    whatever n is.  That factor goes to `matkernel.nullspace` (one SVD; no
    Gram matrix), and each kernel vector maps back through B = uYu†.

    The cut is taken against (Σᵢ (λ_max(Eᵢ) - λ_min(Eᵢ))²)^½, which bounds the
    norm of the unrestricted system [Cᵢ]: cut against the smaller norm of the
    restricted one, eigenvector dust of H would count as structure.  QR and
    SVD are independent of the ``eigh`` behind `fixed_point_space`, so the
    verifiers never compare a computation with itself.
    """
    d = effect_set.dim
    mats = effect_set.matrices
    c = philox_generator(0).standard_normal(len(mats))
    h = mk.sum_terms(ci * e for ci, e in zip(c, mats))
    w, u = np.linalg.eigh((h + h.conj().T) / 2)
    blocks = [np.arange(sl.start, sl.stop) for sl in _cluster_slices(w, tol.ELEMENT_GAP * np.abs(w).max())]
    # unknown k is Y_pq, p = rows[k] and q = cols[k], q running fastest within a block
    rows = np.concatenate([np.repeat(b, b.size) for b in blocks])
    cols = np.concatenate([np.tile(b, b.size) for b in blocks])
    k = np.arange(rows.size)
    factor = np.zeros((0, k.size), dtype=complex)
    for e in mats:
        et = u.conj().T @ e @ u
        # t[s, r, k] is entry (r, s) of Ẽe_pe_qᵀ - e_pe_qᵀẼ, so t.reshape(d², K) has columns vec(·)
        t = np.zeros((d, d, k.size), dtype=complex)
        t[cols, :, k] = et[:, rows].T
        t[:, rows, k] -= et[cols, :].T
        factor = np.linalg.qr(np.vstack([factor, t.reshape(d * d, k.size)]), mode="r")
    spreads = [e.eigenvalues[-1] - e.eigenvalues[0] for e in effect_set.effects]
    y = mk.nullspace(factor, scale=float(np.linalg.norm(spreads)))
    ys = np.zeros((y.shape[1], d, d), dtype=complex)
    ys[:, rows, cols] = y.T
    x = u @ ys @ u.conj().T
    return mk.OperatorSubspace(d, np.ascontiguousarray(x.transpose(0, 2, 1).reshape(-1, d * d).T))


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


def _cluster_slices(values: np.ndarray, gap: float):
    """Maximal runs of ascending values with consecutive gaps at most gap."""
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            yield slice(start, i)
            start = i
    yield slice(start, len(values))


def joint_eigenspaces(effect_set: EffectSet) -> tuple[JointBlock, ...]:
    """Iteratively refine eigenspace clusters across all effects of a commuting set.

    Blocks are ordered lexicographically by their eigenvalue tuples (ascending
    per effect), which makes the decomposition deterministic.  The commutant
    is the direct sum of the full matrix algebras on the blocks, so
    Σ dⱼ² over the block dimensions dⱼ equals dim {Eᵢ}′.
    """
    if not effect_set.commuting:
        raise NotCommuting(
            f"largest pairwise commutator norm {effect_set.max_pairwise_commutator_norm:.3e}"
        )
    d = effect_set.dim
    bases: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for e in effect_set.matrices:
        refined: list[np.ndarray] = []
        for v in bases:
            c = v.conj().T @ e @ v
            w, wv = np.linalg.eigh((c + c.conj().T) / 2)
            for sl in _cluster_slices(w, tol.CLUSTER):
                refined.append(v @ wv[:, sl])
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
    {X ∈ {Eᵢ}′ : (I - F)X = 0}, F = Σ Eᵢ²).
    """

    theorem: str
    fixed_dim: int
    target_dim: int
    distance: float
    verdict: bool


def _verify_fixed_points(effect_set: EffectSet) -> TheoremReport:
    """Compare the fixed-point space with {X ∈ {Eᵢ}′ : (I - F)X = 0} (the commutant for a resolution).

    For X in the commutant Φ(X) = XF, so ‖(I - F)X‖_F = ‖Φ(X) - X‖_F.  With V
    the commutant basis Bⱼ, the target basis is V·ker[vec((I - F)Bⱼ)]ⱼ: the
    right singular vectors of that d²×k system whose singular value is at
    most CLUSTER.  For a commuting set those singular values are the deficits
    |1 - w| of the eigenvalues w of F, so this is the cut with which
    `build_effect_set` tells resolutions apart.  The route reads F and the
    commutant only, never the real matrix of Φ on Herm(d) whose ``eigh`` gives
    `fixed_point_space`, so the two sides share no computation.
    """
    fixed = fixed_point_space(LuedersOperation(effect_set))
    target = commutant(effect_set)
    resolution = effect_set.normalization is Normalization.RESOLUTION
    if not resolution:
        d = effect_set.dim
        v = target.vectors
        # column j of v is vec(Bⱼ), so the (d, d·k) reshape holds B₁ | B₂ | ... side by side
        deficit = (np.eye(d) - effect_set.sum_of_squares) @ v.reshape(d, -1, order="F")
        _, s, vh = np.linalg.svd(deficit.reshape(d * d, -1, order="F"), full_matrices=False)
        target = mk.OperatorSubspace(d, v @ vh[s <= tol.CLUSTER].conj().T)
    cmp = mk.subspaces_equal(fixed, target)
    verdict = cmp.equal and fixed.dim == target.dim
    return TheoremReport("3.1" if resolution else "3.2", fixed.dim, target.dim, cmp.distance, verdict)


def verify_resolution_fixed_points(effect_set: EffectSet) -> TheoremReport:
    """Check that the fixed-point space of Φ equals the commutant of the effect set.

    Requires a resolution (Σ Eᵢ² = I); commutativity is not required at finite
    dimension.
    """
    if effect_set.normalization is not Normalization.RESOLUTION:
        raise NotResolution("the squares do not sum to the identity")
    return _verify_fixed_points(effect_set)


def verify_subnormalized_fixed_points(effect_set: EffectSet) -> TheoremReport:
    """Check that the fixed-point space equals {X ∈ {Eᵢ}′ : (I - F)X = 0}, F = Σ Eᵢ².

    Requires a strictly subnormalized set, commuting or not.  When no
    eigenvalue of F lies within CLUSTER of 1 the target is the zero subspace
    and the fixed-point space must be trivial.
    """
    if effect_set.normalization is Normalization.RESOLUTION:
        raise IsResolution("the squares sum to the identity; use the resolution verifier")
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


def channel_norm(op: LuedersOperation, probes: int = 200, seed: int = 0) -> ChannelNormCertificate:
    """Operator norm of Φ on B(H), which the identity attains: ‖Φ‖ = ‖Φ(I)‖ = ‖F‖.

    The probes are one batched draw of shape (probes, 2, d, d) from the Philox
    stream of seed, bit-equal to drawing the real and imaginary part of each
    probe one at a time.  Each probe is divided by its operator norm, and Φ and
    the image norms are applied to the whole stack at once.  A negative probe
    count or seed raises InvalidArgument.
    """
    if probes < 0:
        raise InvalidArgument(f"probes must be >= 0, got {probes}")
    d = op.dim
    value = mk.operator_norm(op.effect_set.sum_of_squares)
    identity_norm = mk.operator_norm(op.apply(np.eye(d)))
    g = philox_generator(seed).standard_normal((probes, 2, d, d))
    b = g[:, 0] + 1j * g[:, 1]
    b = b / np.linalg.svd(b, compute_uv=False)[:, :1, None]
    images = _phi(op.effect_set.matrices, b)
    max_probe = float(np.linalg.svd(images, compute_uv=False).max(initial=0.0))
    return ChannelNormCertificate(value, identity_norm, max_probe, probes)


@dataclass(frozen=True)
class NagySolution:
    """Plain-data solution of Φ(X) + X = I with its diagnostics."""

    solution: np.ndarray
    residual: float
    half_identity_distance: float
    is_effect: bool


# What `_check_effect` raises for a finite square matrix that is no effect.
_NOT_AN_EFFECT = (NotHermitian, SpectrumBelowZero, SpectrumAboveOne)


def _check_effect(mat: np.ndarray) -> None:
    """The rule of `validate_effect` for a finite square matrix, from its eigenvalues alone."""
    mk._require_hermitian(mat)
    _check_spectrum(np.linalg.eigvalsh(mat))


def nagy_solve(op: LuedersOperation) -> NagySolution:
    """Solve the complete-disturbance equation Φ(X) + X = I by conjugate gradients.

    Under tr(A†B), Φ is Hermitian, and for a validated set its matrix S has
    S ⪰ 0 and ‖S‖ ≤ ‖F‖ ≤ 1, so A = I + Φ has spectrum in [1, 2]: the
    solution is unique and CG (Hestenes & Stiefel, J. Res. NBS 49, 1952)
    shrinks the A-norm error by at least (√2 - 1)/(√2 + 1) ≈ 0.17 per step.
    It starts from X₀ = 0 and stops once the recursive residual has
    ‖r‖_F ≤ ε·‖I‖_F, ε the float64 machine epsilon, or after d² steps.  For
    resolutions the solution is I/2.
    """
    d = op.dim
    x = np.zeros((d, d), dtype=complex)
    r = p = np.eye(d, dtype=complex)
    rr = float(d)
    for _ in range(d * d):
        if np.sqrt(rr) <= np.finfo(float).eps * np.sqrt(d):
            break
        ap = p + _phi(op.effect_set.matrices, p)
        alpha = rr / np.vdot(p, ap).real
        x = x + alpha * p
        r = r - alpha * ap
        rr, rr_old = np.vdot(r, r).real, rr
        p = r + (rr / rr_old) * p
    residual = mk.frobenius_norm(op.apply(x) + x - np.eye(d))
    half_distance = mk.frobenius_norm(x - np.eye(d) / 2)
    try:
        _check_effect(x)
        is_effect = True
    except _NOT_AN_EFFECT:
        is_effect = False
    return NagySolution(x, residual, half_distance, is_effect)


def is_undisturbed_state(op: LuedersOperation, rho) -> tuple[bool, bool]:
    """Return (is_fixed, commutes_with_all) for a density matrix.

    is_fixed holds when ‖Φ(ρ) - ρ‖_F ≤ COMMUTATOR; commutes_with_all when
    every ‖[ρ, Eᵢ]‖ ≤ COMMUTATOR.  The state must pass the rule of `validate_effect`
    (Hermitian within HERMITIAN·‖ρ‖_F, spectrum within [-PSD, 1 + PSD]) and
    satisfy |tr ρ - 1| ≤ COMMUTATOR; each failure raises NotDensityMatrix.
    For Lüders operations of resolutions the two verdicts agree.
    """
    mat = mk.as_complex_matrix(rho)
    if mat.shape != (op.dim, op.dim):
        raise DimensionMismatch(f"state shape {mat.shape} does not match dimension {op.dim}")
    try:
        _check_effect(mat)
    except _NOT_AN_EFFECT as exc:
        raise NotDensityMatrix(f"state fails the effect check: {exc}") from exc
    if abs(float(np.real(np.trace(mat))) - 1.0) > tol.COMMUTATOR:
        raise NotDensityMatrix(f"trace {np.real(np.trace(mat)):.12f} is not 1")
    is_fixed = mk.frobenius_norm(op.apply(mat) - mat) <= tol.COMMUTATOR
    commutes = all(
        mk.operator_norm(mat @ e - e @ mat) <= tol.COMMUTATOR for e in op.effect_set.matrices
    )
    return is_fixed, commutes
