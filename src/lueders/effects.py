"""Quantum effects, effect sets, spectral windows, and seeded instance generators.

An effect is a Hermitian matrix with spectrum in [0, 1].  A finite effect set
{E₁, ..., Eₙ} is classified by its sum of squares F = Σ Eᵢ²: F = I makes it a
resolution, F ≤ I with F ≠ I makes it subnormalized.  Commutativity is decided
from the pairwise commutator norms.  Spectral windows are given by index only:
window k at resolution m is (k/m, (k+1)/m], and `window_index` alone decides
which window holds an eigenvalue.

Generators are fully deterministic: every draw comes from a Philox stream
keyed by the seed, so identical arguments produce bit-identical sets.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk, tolerances as tol
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NotSubnormalized,
    SpectrumAboveOne,
    SpectrumBelowZero,
)
from .rng import philox_generator

__all__ = [
    "Effect",
    "EffectSet",
    "Normalization",
    "build_effect_set",
    "generate_commuting_resolution",
    "generate_commuting_subnormalized",
    "generate_noncommuting_resolution",
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
    """A validated effect: an exactly Hermitian matrix and its ``eigh``, eigenvalues ascending, clipped to [0, 1]."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Exactly Hermitian (M + M†)/2, from halves, of a matrix or of each in a stack; a Hermitian M keeps its bits."""
    adj = np.swapaxes(mat, -1, -2).conj()
    same, out = mat == adj, np.divide(mat, 2)  # mat / 2 + adj / 2, bit for bit, in two temporaries
    np.add(out, np.divide(adj, 2, out=adj), out=out)
    np.copyto(out, mat, where=same)
    return out


def _validated(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_hermitian_part` of a finite (n, d, d) stack and its ``eigh``, clipped; the first matrix to fail raises.

    Each matrix gets the Hermitian check, then the spectrum rule (no eigenvalue below -PSD or above
    1 + PSD), all in one batched pass.
    """
    asymmetric = mk._asymmetric(stack)  # first: its temporaries are freed before mat and u exist
    mat = _hermitian_part(stack)
    w, u = np.linalg.eigh(mat)
    below, above = w[:, 0] < -tol.PSD, w[:, -1] > 1 + tol.PSD
    bad = asymmetric | below | above
    if bad.any():
        i = int(bad.argmax())
        if asymmetric[i]:
            mk._require_hermitian(stack[i])
        if below[i]:
            raise SpectrumBelowZero(f"eigenvalue {w[i, 0]:.6e} below 0")
        if above[i]:
            raise SpectrumAboveOne(f"eigenvalue {w[i, -1]:.6e} above 1")
    return mat, np.clip(w, 0.0, 1.0), u


def validate_effect(m) -> Effect:
    """Check Hermiticity and spectrum ⊂ [-PSD, 1 + PSD]; store `_hermitian_part` with its own ``eigh``, clipped."""
    mat = mk.as_complex_matrix(m)
    mk._require_square(mat)
    return Effect(*(x[0] for x in _validated(mat[None])))


class Normalization(enum.Enum):
    RESOLUTION = "resolution"
    SUBNORMALIZED = "subnormalized"


@dataclass(frozen=True)
class EffectSet:
    """A finite effect set with its derived classification data.

    sum_of_squares_eigenvalues holds the ascending eigenvalues of the
    Hermitized F = Σ Eᵢ², from the subnormalization check.  The set commutes
    when every pairwise commutator norm is at most COMMUTATOR times the largest
    effect norm, which is computed on first read and cached.
    """

    effects: tuple[Effect, ...]
    dim: int
    sum_of_squares: np.ndarray
    sum_of_squares_eigenvalues: np.ndarray
    normalization: Normalization

    @property
    def n(self) -> int:
        return len(self.effects)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(e.matrix for e in self.effects)

    @functools.cached_property
    def max_pairwise_commutator_norm(self) -> float:
        return _max_commutator_norm(list(self.matrices))

    @functools.cached_property
    def commuting(self) -> bool:
        return self.max_pairwise_commutator_norm <= tol.COMMUTATOR * max(float(e.eigenvalues[-1]) for e in self.effects)


def _max_commutator_norm(mats: list[np.ndarray]) -> float:
    """Largest ‖EᵢEⱼ - EⱼEᵢ‖₂ over pairs i < j, with an SVD only for pairs that can be the maximum.

    Each pair first gets the Schatten-4 bound ‖C†C‖_F^½ ≥ ‖C‖₂, with margin
    1 + 1e-8 for rounding, on the `_scaled` C, whose C†C neither underflows
    nor overflows.  Pairs are visited by descending bound,
    and the visit stops once it cannot beat the best norm so far; a visited
    pair goes to `matkernel._max_singular_value` with that best norm, which
    SVDs it only if its Schatten-8 bound reaches it too.  The commutators of one
    effect with all later ones form one batch, so at most n - 1 are held at once.
    """
    if len(mats) < 2:
        return 0.0
    stack = np.stack(mats)
    bounds = []
    for i in range(len(mats) - 1):
        rest = stack[i + 1:]
        c, e = mk._scaled(stack[i] @ rest - rest @ stack[i])
        gram = c.conj().transpose(0, 2, 1) @ c
        bounds.append(np.ldexp(np.sqrt(np.linalg.norm(gram, axis=(1, 2))) * (1 + 1e-8), e))
    bounds = np.concatenate(bounds)
    first, second = np.triu_indices(len(mats), 1)  # the pairs in the order of the batches
    best = 0.0
    for k in np.argsort(-bounds):
        if bounds[k] <= best:
            break
        a, b = mats[first[k]], mats[second[k]]
        best = mk._max_singular_value((a @ b - b @ a)[None], best)
    return best


def build_effect_set(mats) -> EffectSet:
    """Validate each matrix and classify the set.

    Raises NotSubnormalized when the sum of squares has an eigenvalue above
    1 + PSD.  A resolution has every eigenvalue w of F within CLUSTER of 1.
    The fixed-point verifier cuts the singular values of X ↦ (I - F)X on the
    commutant at the same CLUSTER; for a commuting set those are exactly the
    deficits |1 - w|.
    """
    mats = mats if isinstance(mats, np.ndarray) else list(mats)  # a complex (n, d, d) array is not copied
    if len(mats) == 0:
        raise InvalidArgument("an effect set needs at least one effect")
    try:
        stack = np.asarray(mats, dtype=complex)
    except (TypeError, ValueError):  # ragged, or entries that are no numbers
        stack = np.zeros(0)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not np.isfinite(stack).all():
        # Each matrix as a stack of one raises the first failure in effect order; else the dimensions differ.
        d = [validate_effect(m).dim for m in mats]
        raise DimensionMismatch(f"effects of dimension {next(k for k in d if k != d[0])} and {d[0]} in one set")
    mat, w, u = _validated(stack)
    f = mk.sum_terms(mat @ mat)
    f_eigs = np.linalg.eigvalsh(_hermitian_part(f))
    if f_eigs[-1] > 1 + tol.PSD:
        raise NotSubnormalized(f"sum of squares has eigenvalue {f_eigs[-1]:.6e} above 1")

    resolution = bool(np.all(np.abs(f_eigs - 1.0) <= tol.CLUSTER))
    norm = Normalization.RESOLUTION if resolution else Normalization.SUBNORMALIZED
    return EffectSet(tuple(map(Effect, mat, w, u)), stack.shape[1], f, f_eigs, norm)


# ---------------------------------------------------------------------------
# spectral windows


def window_index(lam: float, m: int) -> int:
    """Index k ∈ {-1, ..., m-1} of the window (k/m, (k+1)/m] containing λ ∈ [0, 1].

    A λ within CLUSTER above an edge k/m stays in window k - 1, independent of rounding dust.
    """
    k = math.ceil((lam - tol.CLUSTER) * m) - 1
    return min(max(k, -1), m - 1)


def _group_by_window(values, m: int) -> dict[tuple[int, ...], list[int]]:
    """Row indices grouped by window-index tuple at resolution m, sorted by key.

    Each row of `values` holds eigenvalues, one per effect, of one eigenvector
    or one joint block; its key is the tuple of indices k of the windows
    (k/m, (k+1)/m] that contain them.  A key is one occupied bin F^m_{k₁...kₙ}.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, vals in enumerate(values):
        key = tuple(window_index(float(v), m) for v in vals)
        groups.setdefault(key, []).append(row)
    return dict(sorted(groups.items()))


def spectral_window(effect: Effect, k: int, m: int) -> np.ndarray:
    """Spectral projector of the effect onto window k, (k/m, (k+1)/m]; exactly zero if empty.

    Raises InvalidArgument for a resolution m < 1.
    """
    if m < 1:
        raise InvalidArgument(f"resolution m must be >= 1, got {m}")
    u = effect.eigenvectors[:, _group_by_window(effect.eigenvalues[:, None], m).get((k,), [])]
    return u @ u.conj().T


# ---------------------------------------------------------------------------
# generators


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph[ph == 0] = 1.0
    return q * (ph / np.abs(ph))


def _separated(candidate: np.ndarray, existing: list[np.ndarray]) -> bool:
    """No earlier tuple lies in the near-collision band around candidate; one stacked distance per call."""
    diff = candidate - np.array(existing).reshape(-1, candidate.size)
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return not np.any((_EXACT_TIE < dist) & (dist < MIN_TUPLE_SEPARATION))


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


def _assemble(u: np.ndarray, tuples: np.ndarray) -> EffectSet:
    effects = [(u * tuples[:, i]) @ u.conj().T for i in range(tuples.shape[1])]
    return build_effect_set(effects)


def generate_commuting_resolution(d: int, n: int, seed: int) -> EffectSet:
    """Commuting resolution: shared Haar basis, unit-sphere eigenvalue tuples.

    Each basis vector gets a tuple (λ₁, ..., λₙ) with Σ λᵢ² = 1 and λᵢ ≥ 0,
    so the squares sum to the identity exactly up to rounding.  n = 1 yields
    the identity effect.  This is the subnormalized generator at unit
    fraction 1, whose radius draw then takes nothing from the stream.
    """
    return generate_commuting_subnormalized(d, n, seed, 1.0)


def generate_commuting_subnormalized(d: int, n: int, seed: int, unit_fraction: float) -> EffectSet:
    """Commuting subnormalized set with a prescribed unit eigenspace of F = Σ Eᵢ².

    The first round(unit_fraction·d) basis vectors keep radius 1 (F eigenvalue
    exactly 1); the rest are scaled into [0.3, 0.95], leaving F strictly below
    the identity there with a gap of at least 0.0975.  Unit fraction 1 gives
    a resolution.
    """
    if d < 1 or n < 1:
        raise InvalidArgument(f"need d >= 1 and n >= 1, got d = {d}, n = {n}")
    if not 0.0 <= unit_fraction <= 1.0:
        raise InvalidArgument(f"unit fraction must lie in [0, 1], got {unit_fraction}")
    k_unit = int(math.floor(unit_fraction * d + 0.5))
    rng = philox_generator(seed)
    u = _haar_unitary(d, rng)
    radii = np.ones(d)
    radii[k_unit:] = rng.uniform(0.3, 0.95, size=d - k_unit)
    tuples = _draw_joint_spectra(d, n, rng, radii)
    return _assemble(u, tuples)


def generate_noncommuting_resolution(d: int, n: int, seed: int) -> EffectSet:
    """Non-commuting resolution: n-1 independent random effects, one closing effect.

    The first n-1 effects are scaled so their squares sum to at most 0.95·I;
    the last effect is the PSD square root of the remainder, which is ⪰ 0.05·I
    by construction, so only rounding dust is clipped.  A draw is kept at the
    first pair, in order, whose commutator norm reaches 0.01, else redrawn from
    the next sub-stream, so the result is deterministically non-commuting.
    """
    if d < 2:
        raise InvalidArgument(f"need d >= 2 for a non-commuting set, got {d}")
    if n < 3:
        raise InvalidArgument("need n >= 3: the closing effect ties down the last two degrees of freedom")
    for attempt in range(64):
        rng = philox_generator(seed, stream=attempt)
        base = []
        for _ in range(n - 1):
            v = _haar_unitary(d, rng)
            spectrum = rng.uniform(0.0, 1.0, size=d)
            base.append(_hermitian_part((v * spectrum) @ v.conj().T))
        s = mk.sum_terms([b @ b for b in base])
        mu = mk.operator_norm(s)
        if mu == 0.0:
            continue
        c = math.sqrt(0.95 / mu)
        scaled = [c * b for b in base]
        w, u = np.linalg.eigh(np.eye(d) - mk.sum_terms([e @ e for e in scaled]))
        closer = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
        es = build_effect_set(scaled + [closer])
        if any(mk.operator_norm(a @ b - b @ a) >= 0.01 for i, a in enumerate(es.matrices) for b in es.matrices[i + 1:]):
            return es
    raise RuntimeError("could not reach the non-commutation floor")
