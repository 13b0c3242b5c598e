"""Quantum effects, effect sets, spectral windows, and seeded instance generators.

An effect is a Hermitian matrix with spectrum in [0, 1].  A finite effect set
{E₁, ..., Eₙ} is classified by its sum of squares F = Σ Eᵢ²: F = I makes it a
resolution, F ≤ I with F ≠ I makes it subnormalized.  Commutativity is decided
from the pairwise commutator norms.

Generators are fully deterministic: every draw comes from a Philox stream
keyed by the seed, so identical arguments produce bit-identical sets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import (
    DimensionMismatch,
    InvalidInterval,
    NotSubnormalized,
    SpectrumAboveOne,
    SpectrumBelowZero,
)
from .rng import philox_generator
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "Effect",
    "EffectSet",
    "Normalization",
    "build_effect_set",
    "generate_commuting_resolution",
    "generate_commuting_subnormalized",
    "generate_noncommuting_resolution",
    "in_window",
    "spectral_window",
    "validate_effect",
    "window_index",
]

# Generated joint spectra keep pairwise eigenvalue tuples at least this far
# apart, so rank cuts and cluster gaps sit orders of magnitude away from the
# package tolerances.  Exact ties (distance ≤ 1e-12) are allowed; only the
# in-between near-collision band is resampled.
MIN_TUPLE_SEPARATION = 0.01
_EXACT_TIE = 1e-12
_DRAW_RETRIES = 200


@dataclass(frozen=True)
class Effect:
    """A validated effect with its cached eigensystem (eigenvalues clipped to [0, 1])."""

    matrix: np.ndarray
    eig: mk.HermitianEigensystem

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig.eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig.eigenvectors


def validate_effect(m, tol: Tolerances = DEFAULT) -> Effect:
    """Check Hermiticity and spectrum ⊂ [-tol.psd, 1 + tol.psd]; clip the dust."""
    mat = mk.as_complex_matrix(m)
    eig = mk.hermitian_eigendecompose(mat, tol)
    lo = float(eig.eigenvalues[0])
    hi = float(eig.eigenvalues[-1])
    if lo < -tol.psd:
        raise SpectrumBelowZero(f"eigenvalue {lo:.6e} below 0")
    if hi > 1 + tol.psd:
        raise SpectrumAboveOne(f"eigenvalue {hi:.6e} above 1")
    clipped = np.clip(eig.eigenvalues, 0.0, 1.0)
    return Effect(mat.copy(), mk.HermitianEigensystem(clipped, eig.eigenvectors))


class Normalization(enum.Enum):
    RESOLUTION = "resolution"
    SUBNORMALIZED = "subnormalized"


@dataclass(frozen=True)
class EffectSet:
    """A finite effect set with its derived classification data."""

    effects: tuple[Effect, ...]
    dim: int
    sum_of_squares: np.ndarray
    commuting: bool
    normalization: Normalization
    max_pairwise_commutator_norm: float

    @property
    def n(self) -> int:
        return len(self.effects)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(e.matrix for e in self.effects)


def build_effect_set(mats, tol: Tolerances = DEFAULT) -> EffectSet:
    """Validate each matrix and classify the set.

    Raises NotSubnormalized when the sum of squares has an eigenvalue above
    1 + tol.psd.  Commuting means every pairwise commutator norm stays at or
    below tol.commutator times the largest effect norm.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("an effect set needs at least one effect")
    effects = [validate_effect(m, tol) for m in mats]
    d = effects[0].dim
    for e in effects:
        if e.dim != d:
            raise DimensionMismatch(f"effects of dimension {e.dim} and {d} in one set")

    f = mk.sum_terms([e.matrix @ e.matrix for e in effects])
    f_eigs = np.linalg.eigvalsh((f + f.conj().T) / 2)
    if f_eigs[-1] > 1 + tol.psd:
        raise NotSubnormalized(f"sum of squares has eigenvalue {f_eigs[-1]:.6e} above 1")

    max_comm = 0.0
    for i in range(len(effects)):
        for j in range(i + 1, len(effects)):
            a, b = effects[i].matrix, effects[j].matrix
            max_comm = max(max_comm, mk.operator_norm(a @ b - b @ a))
    max_norm = max(float(e.eigenvalues[-1]) for e in effects)
    commuting = max_comm <= tol.commutator * max_norm

    resolution = mk.frobenius_norm(f - np.eye(d)) <= tol.resolution
    norm = Normalization.RESOLUTION if resolution else Normalization.SUBNORMALIZED
    return EffectSet(tuple(effects), d, f, commuting, norm, max_comm)


# ---------------------------------------------------------------------------
# spectral windows


def in_window(lam: float, a: float, b: float, tol: float = DEFAULT.cluster) -> bool:
    """Membership of λ in the half-open window (a, b].

    Values within tol of an edge snap onto it, so λ = a is excluded and
    λ = b (up to tol) is included, independent of rounding dust.
    """
    return (a + tol < lam) and (lam <= b + tol)


def window_index(lam: float, m: int, tol: float = DEFAULT.cluster) -> int:
    """Index k ∈ {-1, ..., m-1} of the window (k/m, (k+1)/m] containing λ ∈ [0, 1]."""
    k = math.ceil((lam - tol) * m) - 1
    return min(max(k, -1), m - 1)


def spectral_window(effect: Effect, a: float, b: float, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Spectral projector onto the eigenvectors of the effect with eigenvalue in (a, b]."""
    if not a < b:
        raise InvalidInterval(f"need a < b, got ({a}, {b}]")
    sel = np.array([in_window(float(w), a, b, tol.cluster) for w in effect.eigenvalues])
    u = effect.eigenvectors[:, sel]
    return u @ u.conj().T


# ---------------------------------------------------------------------------
# generators


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph[ph == 0] = 1.0
    return q * (ph / np.abs(ph))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _separated(candidate: np.ndarray, existing: list[np.ndarray]) -> bool:
    for t in existing:
        dist = float(np.linalg.norm(candidate - t))
        if _EXACT_TIE < dist < MIN_TUPLE_SEPARATION:
            return False
    return True


def _draw_joint_spectra(d: int, n: int, rng: np.random.Generator, radii: np.ndarray) -> np.ndarray:
    """One eigenvalue tuple per basis vector, each a scaled point on the unit sphere.

    Tuples in the near-collision band are redrawn (bounded retries, then the
    last draw is accepted: separation is a quality aid, not a contract).
    """
    tuples: list[np.ndarray] = []
    for v in range(d):
        lam = None
        for _ in range(_DRAW_RETRIES):
            g = np.abs(rng.standard_normal(n))
            nrm = float(np.linalg.norm(g))
            if nrm == 0.0:
                continue
            lam = (g / nrm) * radii[v]
            if _separated(lam, tuples):
                break
        tuples.append(lam)
    return np.array(tuples)


def _assemble(u: np.ndarray, tuples: np.ndarray, tol: Tolerances) -> EffectSet:
    effects = [_hermitize((u * tuples[:, i]) @ u.conj().T) for i in range(tuples.shape[1])]
    return build_effect_set(effects, tol)


def generate_commuting_resolution(d: int, n: int, seed: int, tol: Tolerances = DEFAULT) -> EffectSet:
    """Commuting resolution: shared Haar basis, unit-sphere eigenvalue tuples.

    Each basis vector gets a tuple (λ₁, ..., λₙ) with Σ λᵢ² = 1 and λᵢ ≥ 0,
    so the squares sum to the identity exactly up to rounding.  n = 1 yields
    the identity effect.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    rng = philox_generator(seed)
    u = _haar_unitary(d, rng)
    tuples = _draw_joint_spectra(d, n, rng, np.ones(d))
    return _assemble(u, tuples, tol)


def generate_commuting_subnormalized(
    d: int, n: int, seed: int, unit_fraction: float, tol: Tolerances = DEFAULT
) -> EffectSet:
    """Commuting subnormalized set with a prescribed unit eigenspace of F = Σ Eᵢ².

    The first round(unit_fraction·d) basis vectors keep radius 1 (F eigenvalue
    exactly 1); the rest are scaled into [0.3, 0.95], leaving F strictly below
    the identity there with a gap of at least 0.0975.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not 0.0 <= unit_fraction <= 1.0:
        raise ValueError("unit_fraction must lie in [0, 1]")
    k_unit = int(math.floor(unit_fraction * d + 0.5))
    rng = philox_generator(seed)
    u = _haar_unitary(d, rng)
    radii = np.ones(d)
    radii[k_unit:] = rng.uniform(0.3, 0.95, size=d - k_unit)
    tuples = _draw_joint_spectra(d, n, rng, radii)
    return _assemble(u, tuples, tol)


def generate_noncommuting_resolution(d: int, n: int, seed: int, tol: Tolerances = DEFAULT) -> EffectSet:
    """Non-commuting resolution: n-1 independent random effects, one closing effect.

    The first n-1 effects are scaled so their squares sum to at most 0.95·I;
    the last effect is the PSD square root of the remainder.  Draws whose
    largest pairwise commutator norm falls below 0.01 are regenerated from the
    next sub-stream, so the result is deterministically non-commuting.
    """
    if d < 2:
        raise ValueError("need d >= 2 for a non-commuting set")
    if n < 3:
        raise ValueError("need n >= 3: the closing effect ties down the last two degrees of freedom")
    for attempt in range(64):
        rng = philox_generator(seed, stream=attempt)
        base = []
        for _ in range(n - 1):
            v = _haar_unitary(d, rng)
            spectrum = rng.uniform(0.0, 1.0, size=d)
            base.append(_hermitize((v * spectrum) @ v.conj().T))
        s = mk.sum_terms([b @ b for b in base])
        mu = mk.operator_norm(s)
        if mu == 0.0:
            continue
        c = math.sqrt(0.95 / mu)
        scaled = [c * b for b in base]
        closer = mk.sqrt_psd(np.eye(d) - mk.sum_terms([e @ e for e in scaled]), tol)
        es = build_effect_set(scaled + [closer], tol)
        if es.max_pairwise_commutator_norm >= 0.01:
            return es
    raise RuntimeError("could not reach the non-commutation floor")
