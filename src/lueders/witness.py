"""Quantitative non-commutation: spectral bins, witnesses, and contractive blocks.

For a commuting effect set, the products of per-effect spectral windows
(k/m, (k+1)/m], k ∈ {-1, ..., m-1}, tile the joint spectrum into bin
projections F^m_{k₁...kₙ}.  An operator commutes with every effect exactly
when it commutes with every such bin at every resolution; failure shows up as
an off-diagonal block between two windows of one effect.

witness_search finds such a block with window indices at least 2 apart by
doubling the resolution; build_contractive_block turns a witness into a block
Y on which the Lüders operation contracts the operator norm by an explicit,
computable margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matkernel as mk, tolerances as tol
from .effects import Effect, EffectSet, _group_by_window
from .errors import (
    CommutesNoWitness,
    DimensionMismatch,
    InvalidArgument,
    RefinementVanished,
    ResolutionExhausted,
)
from .operation import JointBlock, LuedersOperation, joint_eigenspaces

__all__ = [
    "ContractionReport",
    "M_MAX",
    "WitnessCertificate",
    "build_contractive_block",
    "contraction_bound",
    "contraction_threshold",
    "witness_search",
]

# Resolution cap for the dyadic witness search.  A genuine non-commuter is
# caught once 1/m falls below half the smallest gap between coupled distinct
# eigenvalues, so the cap only converts pathological inputs into a typed error.
M_MAX = 2**20


# ---------------------------------------------------------------------------
# witness search on a single effect


@dataclass(frozen=True)
class WitnessCertificate:
    """Plain data: a separated window pair of one effect that the operator couples.

    At resolution m the operator has a block of norm block_norm between the
    windows with indices k and j, |k - j| ≥ 2, so the windows enclose spectral
    values at least 1/m apart.
    """

    m: int
    k: int
    j: int
    block_norm: float
    left_projector: np.ndarray
    right_projector: np.ndarray


def witness_search(effect: Effect, b) -> WitnessCertificate:
    """Find windows of one effect, two or more indices apart, that b couples.

    Doubles the resolution m = 2, 4, 8, ... and scans window pairs in
    lexicographic (k, j) order; the first block with norm above WITNESS·‖b‖
    and |k - j| ≥ 2 wins.  Raises CommutesNoWitness when ‖[b, E]‖ ≤
    COMMUTATOR·‖b‖ and ResolutionExhausted past M_MAX.  Norms are taken of
    b·2⁻ᵉ, which cannot overflow; InvalidArgument if block_norm = 2ᵉ·norm does.
    """
    mat = mk.as_complex_matrix(b)
    if mat.shape != effect.matrix.shape:
        raise DimensionMismatch(f"operator shape {mat.shape} does not match effect shape {effect.matrix.shape}")
    mat, e = mk._scaled_below_one(mat)
    b_norm = mk.operator_norm(mat)
    comm = mk.operator_norm(effect.matrix @ mat - mat @ effect.matrix)
    if comm <= tol.COMMUTATOR * b_norm:
        raise CommutesNoWitness(f"commutator norm {math.ldexp(comm, e):.3e} within tolerance")
    thresh = tol.WITNESS * b_norm

    u = effect.eigenvectors
    m = 2
    while m <= M_MAX:
        groups = _group_by_window(effect.eigenvalues[:, None], m)
        projs = {key: u[:, cols] @ u[:, cols].conj().T for key, cols in groups.items()}
        pair = _first_coupled_pair(projs, projs, mat, thresh, apart=2)
        if pair is not None:
            (k,), (j,), _, norm = pair
            try:
                block_norm = math.ldexp(norm, e)
            except OverflowError:
                raise InvalidArgument(f"block norm {norm!r} * 2^{e} exceeds the double range") from None
            return WitnessCertificate(m, k, j, block_norm, projs[(k,)], projs[(j,)])
        m *= 2
    raise ResolutionExhausted(f"no separated window pair up to resolution {M_MAX}")


def _first_coupled_pair(left: dict, right: dict, x: np.ndarray, thresh: float, apart: int = 0):
    """First key pair (a, b) of left × right, in lexicographic order, whose block
    left[a]·x·right[b] has operator norm above thresh: (a, b, block, norm), or None.

    Keys are window-index tuples; pairs whose first indices lie less than
    `apart` apart are skipped.
    """
    for a, b in itertools.product(left, right):
        if abs(a[0] - b[0]) < apart:
            continue
        block = left[a] @ x @ right[b]
        norm = mk.operator_norm(block)
        if norm > thresh:
            return a, b, block, norm
    return None


# ---------------------------------------------------------------------------
# the contraction bound and the block construction


def contraction_bound(n: int, m: int, p: int) -> float:
    """Guaranteed norm-loss fraction (p² - 4√n·m·p - 2n) / (2(pm)²).

    n is the number of effects, m the witness resolution, p the refinement
    factor.  Positive once p exceeds roughly (4m + 2)√n; grows towards
    1/(2m²) as p → ∞.  In floating point the numerator and denominator round
    independently, so beyond p ≈ 10⁹ the value at p + 1 can fall about one
    ulp below the value at p.  The formula is kept as written because every
    monotone rewrite changes the printed digits of suite criterion C7.
    """
    if n < 1 or m < 1 or p < 1:
        raise InvalidArgument(f"need n, m, p >= 1, got n = {n}, m = {m}, p = {p}")
    return (p * p - 4 * math.sqrt(n) * m * p - 2 * n) / (2 * (p * m) ** 2)


def contraction_threshold(n: int, m: int) -> int:
    """Smallest p with a positive contraction bound.

    The numerator p² - 4√n·m·p - 2n is positive exactly beyond its larger
    root 2√n·m + √(4n·m² + 2n), which gives p* in closed form; the integer
    guard then steps p until the floating-point bound itself changes sign
    between p* - 1 and p*.
    """
    p = math.floor(2 * math.sqrt(n) * m + math.sqrt(4 * n * m * m + 2 * n)) + 1
    while p > 1 and contraction_bound(n, m, p - 1) > 0:
        p -= 1
    while contraction_bound(n, m, p) <= 0:
        p += 1
    return p


@dataclass(frozen=True)
class ContractionReport:
    """A block Y = P X Q on which the operation contracts the norm.

    P and Q are products of bin projections from the commutant of the effect
    set, PQ = 0, and the refined first-coordinate indices satisfy
    |s₁ - s₁'| ≥ p.  achieved_ratio = (‖Y‖ - ‖Φ(Y)‖)/‖Y‖ is certified to be
    at least `bound`.
    """

    n: int
    m: int
    p: int
    bound: float
    achieved_ratio: float
    coarse_left: tuple[int, ...]
    coarse_right: tuple[int, ...]
    refined_left: tuple[int, ...]
    refined_right: tuple[int, ...]
    y: np.ndarray
    left_projector: np.ndarray
    right_projector: np.ndarray
    y_norm: float
    image_norm: float


def _projector_of(blocks: list[JointBlock]) -> np.ndarray:
    return mk.sum_terms([b.basis @ b.basis.conj().T for b in blocks])


def build_contractive_block(effect_set: EffectSet, x, p: int) -> ContractionReport:
    """Construct a block of x that the Lüders operation provably contracts.

    Steps: find a witness pair (k, j) of the first effect at resolution m;
    expand to full bin tuples with first coordinates k and j that keep the
    block alive; refine both tuples at resolution p·m the same way.  The
    surviving block Y = P x Q then loses at least contraction_bound(n, m, p)
    of its operator norm under the operation.  As in witness_search, blocks
    are decided on x·2⁻ᵉ; y and its norms scale back by 2ᵉ exactly, and
    InvalidArgument is raised if they leave the double range.
    """
    joint = joint_eigenspaces(effect_set)
    if p < 1:
        raise InvalidArgument(f"refinement factor p must be >= 1, got {p}")
    mat = mk.as_complex_matrix(x)
    if mat.shape != (effect_set.dim, effect_set.dim):
        raise DimensionMismatch(f"operator shape {mat.shape} does not match dimension {effect_set.dim}")
    cert = witness_search(effect_set.effects[0], mat)
    m, k, j = cert.m, cert.k, cert.j
    mat, e = mk._scaled_below_one(mat)
    thresh = tol.WITNESS * mk.operator_norm(mat)

    def bins(blocks: list[JointBlock], res: int) -> dict[tuple[int, ...], list[JointBlock]]:
        groups = _group_by_window([b.values for b in blocks], res)
        return {key: [blocks[i] for i in rows] for key, rows in groups.items()}

    coarse = bins(list(joint), m)
    coarse_left = {t: _projector_of(coarse[t]) for t in coarse if t[0] == k}
    coarse_right = {t: _projector_of(coarse[t]) for t in coarse if t[0] == j}
    coarse_pair = _first_coupled_pair(coarse_left, coarse_right, mat, thresh)
    if coarse_pair is None:
        raise RefinementVanished("expanding the witness to full bin tuples lost the block")
    ks, ks2, y0, _ = coarse_pair

    fine = p * m
    fine_left = {t: _projector_of(b) for t, b in bins(coarse[ks], fine).items()}
    fine_right = {t: _projector_of(b) for t, b in bins(coarse[ks2], fine).items()}
    fine_pair = _first_coupled_pair(fine_left, fine_right, y0, thresh)
    if fine_pair is None:
        raise RefinementVanished(f"refinement at resolution {fine} lost the block")
    s, s2, _, _ = fine_pair

    left = fine_left[s] @ coarse_left[ks]
    right = coarse_right[ks2] @ fine_right[s2]
    y = left @ mat @ right
    y_norm = mk.operator_norm(y)
    image_norm = mk.operator_norm(LuedersOperation(effect_set).apply(y))
    achieved_ratio = (y_norm - image_norm) / y_norm
    try:
        with np.errstate(over="raise"):
            y.real, y.imag = np.ldexp(y.real, e), np.ldexp(y.imag, e)
        y_norm, image_norm = math.ldexp(y_norm, e), math.ldexp(image_norm, e)
    except (OverflowError, FloatingPointError):
        raise InvalidArgument(f"block norm {y_norm!r} * 2^{e} exceeds the double range") from None
    return ContractionReport(
        n=effect_set.n,
        m=m,
        p=p,
        bound=contraction_bound(effect_set.n, m, p),
        achieved_ratio=achieved_ratio,
        coarse_left=ks,
        coarse_right=ks2,
        refined_left=s,
        refined_right=s2,
        y=y,
        left_projector=left,
        right_projector=right,
        y_norm=y_norm,
        image_norm=image_norm,
    )
