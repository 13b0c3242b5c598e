"""The Lüders operation Φ(B) = Σᵢ EᵢBEᵢ and its structure theory.

This module computes the operation itself, its matrix as a superoperator on
vectorized operators, the fixed-point subspace {B : Φ(B) = B}, the commutant
of the effect set, and the joint eigenspace decomposition of commuting sets.
On top of those sit the two fixed-point verifiers:

* resolution case: the fixed-point space coincides with the commutant;
* subnormalized commuting case: it coincides with the commutant compressed by
  the spectral projector of F = Σ Eᵢ² at eigenvalue 1.

Reports carry the labels "3.1" and "3.2" respectively on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .effects import EffectSet, Normalization
from .errors import (
    DimensionMismatch,
    IsResolution,
    NotCommuting,
    NotDensityMatrix,
    NotResolution,
    SingularSystem,
)
from .rng import philox_generator
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ChannelNormCertificate",
    "JointBlock",
    "JointEigenstructure",
    "LuedersOperation",
    "NagySolution",
    "TheoremReport",
    "channel_norm",
    "commutant",
    "fixed_point_space",
    "is_undisturbed_state",
    "joint_eigenspaces",
    "nagy_solve",
    "unit_spectral_projector",
    "verify_resolution_fixed_points",
    "verify_subnormalized_fixed_points",
]


class LuedersOperation:
    """B ↦ Σᵢ EᵢBEᵢ for a finite effect set."""

    def __init__(self, effect_set: EffectSet):
        self.effect_set = effect_set
        self._superoperator: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.effect_set.dim

    def apply(self, b) -> np.ndarray:
        mat = mk.as_complex_matrix(b)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"operator shape {mat.shape} does not match dimension {self.dim}")
        return mk.sum_terms([(e @ mat) @ e for e in self.effect_set.matrices])

    @property
    def superoperator(self) -> np.ndarray:
        """Matrix of the operation under column-stacking: Σᵢ Eᵢᵀ ⊗ Eᵢ."""
        if self._superoperator is None:
            self._superoperator = mk.sum_terms(
                [np.kron(e.T, e) for e in self.effect_set.matrices]
            )
        return self._superoperator


def fixed_point_space(op: LuedersOperation, tol: float = DEFAULT.nullspace) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : Φ(B) = B}: the eigenvalue-1 cluster of the superoperator.

    The superoperator Σ conj(Eᵢ)⊗Eᵢ is Hermitian, so one ``eigh`` of its
    Hermitized matrix gives the singular values |w - 1| of S - I with their
    vectors, and the relative cut of `matkernel.nullspace` applies unchanged.
    """
    s = op.superoperator
    w, v = np.linalg.eigh((s + s.conj().T) / 2)
    cols = mk._kernel_columns(np.abs(w - 1.0), v, tol)
    return mk.OperatorSubspace.from_vectors(cols, op.dim)


def commutant(effect_set: EffectSet, tol: float = DEFAULT.nullspace) -> mk.OperatorSubspace:
    """Orthonormal basis of {B : [B, Eᵢ] = 0 for all i}.

    The simultaneous commutation conditions stack into one (n·d²)×d² map
    whose kernel is the commutant; vec(BE - EB) = (Eᵀ ⊗ I - I ⊗ E) vec(B)
    fixes each block.  Its kernel comes from `matkernel.nullspace` (QR, then
    one SVD), a factorization independent of the ``eigh`` behind
    `fixed_point_space`, so the verifiers never compare a computation with
    itself.
    """
    d = effect_set.dim
    eye = np.eye(d)
    blocks = [np.kron(e.T, eye) - np.kron(eye, e) for e in effect_set.matrices]
    cols = mk.nullspace(np.vstack(blocks), tol)
    return mk.OperatorSubspace.from_vectors(cols, d)


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


@dataclass(frozen=True)
class JointEigenstructure:
    blocks: tuple[JointBlock, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)

    @property
    def commutant_dimension(self) -> int:
        """Σ dⱼ² over the joint blocks: the dimension of the commutant."""
        return sum(b.dim**2 for b in self.blocks)


def _cluster_slices(values: np.ndarray, gap: float):
    """Maximal runs of ascending values with consecutive gaps at most `gap`."""
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            yield slice(start, i)
            start = i
    yield slice(start, len(values))


def _require_commuting(effect_set: EffectSet) -> None:
    if not effect_set.commuting:
        raise NotCommuting(
            f"largest pairwise commutator norm {effect_set.max_pairwise_commutator_norm:.3e}"
        )


def joint_eigenspaces(effect_set: EffectSet, tol: Tolerances = DEFAULT) -> JointEigenstructure:
    """Iteratively refine eigenspace clusters across all effects of a commuting set.

    Blocks are ordered lexicographically by their eigenvalue tuples (ascending
    per effect), which makes the decomposition deterministic.
    """
    _require_commuting(effect_set)
    d = effect_set.dim
    bases: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for e in effect_set.matrices:
        refined: list[np.ndarray] = []
        for v in bases:
            c = v.conj().T @ e @ v
            w, wv = np.linalg.eigh((c + c.conj().T) / 2)
            for sl in _cluster_slices(w, tol.cluster):
                refined.append(v @ wv[:, sl])
        bases = refined
    blocks = []
    for v in bases:
        vals = np.array(
            [float(np.real(np.trace(v.conj().T @ e @ v)) / v.shape[1]) for e in effect_set.matrices]
        )
        blocks.append(JointBlock(vals, v))
    return JointEigenstructure(tuple(blocks))


# ---------------------------------------------------------------------------
# fixed-point verifiers


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of a fixed-point space comparison.

    theorem is the wire label of the claim checked: "3.1" for the resolution
    case, "3.2" for the subnormalized commuting case.
    """

    theorem: str
    fixed_dim: int
    target_dim: int
    distance: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "fixed_dim": self.fixed_dim,
            "target_dim": self.target_dim,
            "distance": self.distance,
            "verdict": self.verdict,
        }


def verify_resolution_fixed_points(effect_set: EffectSet, tol: Tolerances = DEFAULT) -> TheoremReport:
    """Check that the fixed-point space of Φ equals the commutant of the effect set.

    Requires a resolution (Σ Eᵢ² = I); commutativity is not required at finite
    dimension.
    """
    if effect_set.normalization is not Normalization.RESOLUTION:
        raise NotResolution("the squares do not sum to the identity")
    fixed = fixed_point_space(LuedersOperation(effect_set), tol.nullspace)
    comm = commutant(effect_set, tol.nullspace)
    cmp = mk.subspaces_equal(fixed, comm, tol.subspace)
    verdict = cmp.equal and fixed.dim == comm.dim
    return TheoremReport("3.1", fixed.dim, comm.dim, cmp.distance, verdict)


def unit_spectral_projector(effect_set: EffectSet, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Spectral projector of F = Σ Eᵢ² at eigenvalue 1 (cluster width tol.cluster)."""
    f = effect_set.sum_of_squares
    eig = mk.hermitian_eigendecompose((f + f.conj().T) / 2, tol)
    u = eig.eigenvectors[:, np.abs(eig.eigenvalues - 1.0) <= tol.cluster]
    return u @ u.conj().T


def verify_subnormalized_fixed_points(effect_set: EffectSet, tol: Tolerances = DEFAULT) -> TheoremReport:
    """Check that the fixed-point space equals P·(commutant), P the unit eigenprojector of F.

    Requires a commuting, strictly subnormalized set.  With no unit eigenspace
    the target is the zero subspace and the fixed-point space must be trivial.
    """
    _require_commuting(effect_set)
    if effect_set.normalization is Normalization.RESOLUTION:
        raise IsResolution("the squares sum to the identity; use the resolution verifier")
    fixed = fixed_point_space(LuedersOperation(effect_set), tol.nullspace)
    comm = commutant(effect_set, tol.nullspace)
    p = unit_spectral_projector(effect_set, tol)
    target_mats = mk.orthonormalize([p @ b for b in comm.basis], drop_tol=tol.nullspace)
    target = mk.OperatorSubspace(effect_set.dim, tuple(target_mats))
    cmp = mk.subspaces_equal(fixed, target, tol.subspace)
    verdict = cmp.equal and fixed.dim == target.dim
    return TheoremReport("3.2", fixed.dim, target.dim, cmp.distance, verdict)


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
    """Operator norm of Φ on B(H), which the identity attains: ‖Φ‖ = ‖Φ(I)‖ = ‖F‖."""
    d = op.dim
    value = mk.operator_norm(op.effect_set.sum_of_squares)
    identity_norm = mk.operator_norm(op.apply(np.eye(d)))
    rng = philox_generator(seed)
    max_probe = 0.0
    for _ in range(probes):
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = b / mk.operator_norm(b)
        max_probe = max(max_probe, mk.operator_norm(op.apply(b)))
    return ChannelNormCertificate(value, identity_norm, max_probe, probes)


@dataclass(frozen=True)
class NagySolution:
    """Solution of Φ(X) + X = I with its diagnostics."""

    solution: np.ndarray
    residual: float
    half_identity_distance: float
    is_effect: bool

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "half_identity_distance": self.half_identity_distance,
            "is_effect": self.is_effect,
        }


def nagy_solve(op: LuedersOperation, tol: Tolerances = DEFAULT) -> NagySolution:
    """Solve the complete-disturbance equation Φ(X) + X = I.

    The superoperator of Φ is Hermitian positive semidefinite, so S + I is
    Hermitian with spectrum in [1, 2], invertible, and the solution unique.
    The singular guard reads |eigenvalues| from ``eigvalsh`` (they are the
    singular values of a Hermitian matrix) and stays for hand-built inputs;
    the system is then solved by LU with ``np.linalg.solve``.  For resolutions
    the solution is I/2.
    """
    d = op.dim
    a = op.superoperator + np.eye(d * d)
    s = np.abs(np.linalg.eigvalsh(a))
    if s.min() <= tol.nullspace * s.max():
        raise SingularSystem("the superoperator has an eigenvalue at -1")
    x_vec = np.linalg.solve(a, mk.vec(np.eye(d)))
    x = mk.unvec(x_vec, d)
    residual = mk.frobenius_norm(op.apply(x) + x - np.eye(d))
    half_distance = mk.frobenius_norm(x - np.eye(d) / 2)
    w = np.linalg.eigvalsh((x + x.conj().T) / 2)
    is_effect = bool(
        mk.hermitian_defect(x) <= tol.hermitian * mk.frobenius_norm(x)
        and w[0] >= -tol.psd
        and w[-1] <= 1 + tol.psd
    )
    return NagySolution(x, residual, half_distance, is_effect)


def is_undisturbed_state(op: LuedersOperation, rho, tol: Tolerances = DEFAULT) -> tuple[bool, bool]:
    """Return (is_fixed, commutes_with_all) for a density matrix.

    is_fixed holds when ‖Φ(ρ) - ρ‖_F ≤ tol.commutator; commutes_with_all when
    every ‖[ρ, Eᵢ]‖ ≤ tol.commutator.  The state must be Hermitian within
    tol.hermitian, have no eigenvalue below -tol.psd and satisfy
    |tr ρ - 1| ≤ tol.commutator.  For Lüders operations of resolutions the
    two verdicts agree.
    """
    mat = mk.as_complex_matrix(rho)
    if mat.shape != (op.dim, op.dim):
        raise DimensionMismatch(f"state shape {mat.shape} does not match dimension {op.dim}")
    if mk.hermitian_defect(mat) > tol.hermitian * max(mk.frobenius_norm(mat), 1.0):
        raise NotDensityMatrix("state is not Hermitian")
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    if w[0] < -tol.psd:
        raise NotDensityMatrix(f"state has eigenvalue {w[0]:.3e} below 0")
    if abs(float(np.real(np.trace(mat))) - 1.0) > tol.commutator:
        raise NotDensityMatrix(f"trace {np.real(np.trace(mat)):.12f} is not 1")
    is_fixed = mk.frobenius_norm(op.apply(mat) - mat) <= tol.commutator
    commutes = all(
        mk.operator_norm(mat @ e - e @ mat) <= tol.commutator for e in op.effect_set.matrices
    )
    return is_fixed, commutes
