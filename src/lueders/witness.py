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

from . import matkernel as mk
from .effects import Effect, EffectSet, window_index
from .errors import (
    CommutesNoWitness,
    DimensionMismatch,
    RefinementVanished,
    ResolutionExhausted,
)
from .operation import JointBlock, LuedersOperation, joint_eigenspaces, _require_commuting
from .tolerances import DEFAULT, Tolerances

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


def _group_by_window(values, m: int, tol: Tolerances) -> dict[tuple[int, ...], list[int]]:
    """Row indices grouped by window-index tuple at resolution m, sorted by key.

    Each row of `values` holds eigenvalues, one per effect, of one eigenvector
    or one joint block; its key is the tuple of indices k of the windows
    (k/m, (k+1)/m] that contain them.  A key is one occupied bin F^m_{k₁...kₙ}.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, vals in enumerate(values):
        key = tuple(window_index(float(v), m, tol.cluster) for v in vals)
        groups.setdefault(key, []).append(row)
    return dict(sorted(groups.items()))


# ---------------------------------------------------------------------------
# witness search on a single effect


@dataclass(frozen=True)
class WitnessCertificate:
    """A separated window pair of one effect that the operator couples.

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

    def to_dict(self, full: bool = False) -> dict:
        out = {"m": self.m, "k": self.k, "j": self.j, "block_norm": self.block_norm}
        if full:
            from .serialize import matrix_to_lists

            out["left_projector"] = matrix_to_lists(self.left_projector)
            out["right_projector"] = matrix_to_lists(self.right_projector)
        return out


def witness_search(effect: Effect, b, tol: Tolerances = DEFAULT) -> WitnessCertificate:
    """Find windows of one effect, two or more indices apart, that b couples.

    Doubles the resolution m = 2, 4, 8, ... and scans window pairs in
    lexicographic (k, j) order; the first block with norm above the threshold
    and |k - j| ≥ 2 wins.  Raises CommutesNoWitness when [b, E] vanishes
    within tolerance and ResolutionExhausted past M_MAX.
    """
    mat = mk.as_complex_matrix(b)
    if mat.shape != effect.matrix.shape:
        raise DimensionMismatch(f"operator shape {mat.shape} does not match effect shape {effect.matrix.shape}")
    b_norm = mk.operator_norm(mat)
    comm = mk.operator_norm(effect.matrix @ mat - mat @ effect.matrix)
    if comm <= tol.commutator * b_norm:
        raise CommutesNoWitness(f"commutator norm {comm:.3e} within tolerance")
    thresh = tol.witness * b_norm

    u = effect.eigenvectors
    m = 2
    while m <= M_MAX:
        groups = _group_by_window(effect.eigenvalues[:, None], m, tol)
        projs = {key[0]: u[:, cols] @ u[:, cols].conj().T for key, cols in groups.items()}
        for k, j in itertools.product(projs, repeat=2):
            if abs(k - j) < 2:
                continue
            norm = mk.operator_norm(projs[k] @ mat @ projs[j])
            if norm > thresh:
                return WitnessCertificate(m, k, j, norm, projs[k], projs[j])
        m *= 2
    raise ResolutionExhausted(f"no separated window pair up to resolution {M_MAX}")


# ---------------------------------------------------------------------------
# the contraction bound and the block construction


def contraction_bound(n: int, m: int, p: int) -> float:
    """Guaranteed norm-loss fraction (p² - 4√n·m·p - 2n) / (2(pm)²).

    n is the number of effects, m the witness resolution, p the refinement
    factor.  Positive once p exceeds roughly (4m + 2)√n; grows towards
    1/(2m²) as p → ∞.
    """
    if n < 1 or m < 1 or p < 1:
        raise ValueError("need n, m, p >= 1")
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


def build_contractive_block(effect_set: EffectSet, x, p: int, tol: Tolerances = DEFAULT) -> ContractionReport:
    """Construct a block of x that the Lüders operation provably contracts.

    Steps: find a witness pair (k, j) of the first effect at resolution m;
    expand to full bin tuples with first coordinates k and j that keep the
    block alive; refine both tuples at resolution p·m the same way.  The
    surviving block Y = P x Q then loses at least contraction_bound(n, m, p)
    of its operator norm under the operation.
    """
    _require_commuting(effect_set)
    if p < 1:
        raise ValueError("refinement factor p must be >= 1")
    mat = mk.as_complex_matrix(x)
    if mat.shape != (effect_set.dim, effect_set.dim):
        raise DimensionMismatch(f"operator shape {mat.shape} does not match dimension {effect_set.dim}")
    cert = witness_search(effect_set.effects[0], mat, tol)
    m, k, j = cert.m, cert.k, cert.j
    thresh = tol.witness * mk.operator_norm(mat)

    def bins(blocks: list[JointBlock], res: int) -> dict[tuple[int, ...], list[JointBlock]]:
        groups = _group_by_window([b.values for b in blocks], res, tol)
        return {key: [blocks[i] for i in rows] for key, rows in groups.items()}

    coarse = bins(list(joint_eigenspaces(effect_set, tol).blocks), m)
    left_keys = [t for t in coarse if t[0] == k]
    right_keys = [t for t in coarse if t[0] == j]
    chosen = None
    for ks, ks2 in itertools.product(left_keys, right_keys):
        p0 = _projector_of(coarse[ks])
        q0 = _projector_of(coarse[ks2])
        y0 = p0 @ mat @ q0
        if mk.operator_norm(y0) > thresh:
            chosen = (ks, ks2, p0, q0, y0)
            break
    if chosen is None:
        raise RefinementVanished("expanding the witness to full bin tuples lost the block")
    ks, ks2, p0, q0, y0 = chosen

    fine = p * m
    fine_left = bins(coarse[ks], fine)
    fine_right = bins(coarse[ks2], fine)
    refined = None
    for s, s2 in itertools.product(fine_left, fine_right):
        fs = _projector_of(fine_left[s])
        fs2 = _projector_of(fine_right[s2])
        if mk.operator_norm(fs @ y0 @ fs2) > thresh:
            refined = (s, s2, fs, fs2)
            break
    if refined is None:
        raise RefinementVanished(f"refinement at resolution {fine} lost the block")
    s, s2, fs, fs2 = refined

    left = fs @ p0
    right = q0 @ fs2
    y = left @ mat @ right
    y_norm = mk.operator_norm(y)
    image_norm = mk.operator_norm(LuedersOperation(effect_set).apply(y))
    return ContractionReport(
        n=effect_set.n,
        m=m,
        p=p,
        bound=contraction_bound(effect_set.n, m, p),
        achieved_ratio=(y_norm - image_norm) / y_norm,
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
