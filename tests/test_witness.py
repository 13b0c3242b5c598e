import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

from lueders import matkernel as mk, tolerances as tol, witness as witness_module
from lueders.effects import _group_by_window, build_effect_set, generate_commuting_resolution, spectral_window
from lueders.errors import (
    CommutesNoWitness,
    DimensionMismatch,
    InvalidArgument,
    ResolutionExhausted,
)
from lueders.operation import LuedersOperation, is_undisturbed_state, joint_eigenspaces
from lueders.witness import (
    build_contractive_block,
    contraction_bound,
    contraction_threshold,
    witness_search,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _pinching():
    return build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def _bin_projection(es, m, ks):
    """The bin projection F^m_{k₁...kₙ} = Π P^{Eᵢ}(kᵢ/m, (kᵢ+1)/m], straight from its definition."""
    p = np.eye(es.dim, dtype=complex)
    for eff, k in zip(es.effects, ks):
        p = p @ spectral_window(eff, k, m)
    return p


def _bins_by_definition(es, m, first):
    """Every nonzero bin projection F^m_s whose first index s₁ lies in `first`, keyed by s."""
    windows = [[k for k in range(-1, m) if spectral_window(e, k, m).any()] for e in es.effects]
    bins = {s: _bin_projection(es, m, s) for s in itertools.product(*windows) if s[0] in first}
    return {s: p for s, p in bins.items() if np.trace(p).real > 0.5}


def _first_coupled_pair_by_scan(left, right, x, block, apart=0):
    """First key pair of left × right, in lexicographic order, with |a₁ - b₁| ≥ apart and
    ‖left[a]·block·right[b]‖ > WITNESS·‖x‖; None if there is none."""
    thresh = tol.WITNESS * mk.operator_norm(x)
    for a, b in itertools.product(sorted(left), sorted(right)):
        if abs(a[0] - b[0]) >= apart and mk.operator_norm(left[a] @ block @ right[b]) > thresh:
            return a, b
    return None


def _occupied_bins(es, m):
    """Occupied bin projectors at resolution m, built from the grouping of joint blocks."""
    blocks = joint_eigenspaces(es)
    groups = _group_by_window([b.values for b in blocks], m)
    return {
        key: mk.sum_terms([blocks[i].basis @ blocks[i].basis.conj().T for i in rows])
        for key, rows in groups.items()
    }


def test_bin_projection_pinching():
    es = _pinching()
    assert np.abs(_bin_projection(es, 2, (-1, 1)) - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(_bin_projection(es, 2, (1, -1)) - np.diag([1.0, 0.0])).max() < 1e-12
    # mixed windows miss the joint spectrum entirely
    assert np.abs(_bin_projection(es, 2, (1, 1))).max() < 1e-12


def test_occupied_bins_pinching():
    bins = _occupied_bins(_pinching(), 2)
    assert list(bins) == [(-1, 1), (1, -1)]
    assert np.abs(bins[(-1, 1)] - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(bins[(1, -1)] - np.diag([1.0, 0.0])).max() < 1e-12


@pytest.mark.parametrize("m", [2, 4, 16])
def test_occupied_bins_partition_for_resolutions(m):
    es = generate_commuting_resolution(5, 3, seed=7)
    bins = _occupied_bins(es, m)
    assert list(bins) == sorted(bins)
    total = mk.sum_terms(list(bins.values()))
    assert np.abs(total - np.eye(5)).max() < 1e-10
    for key, p in bins.items():
        assert np.abs(p @ p - p).max() < 1e-10
        # each group is exactly the bin its key names
        assert np.abs(p - _bin_projection(es, m, key)).max() < 1e-10


def test_group_by_window_sorts_keys_and_keeps_row_order():
    values = [(0.9, 0.1), (0.1, 0.9), (0.95, 0.05), (0.0, 1.0)]
    assert _group_by_window(values, 2) == {(-1, 1): [3], (0, 1): [1], (1, 0): [0, 2]}
    assert _group_by_window(np.array([[0.5], [0.25], [0.5]]), 4) == {(0,): [1], (1,): [0, 2]}


def test_witness_search_pinching():
    eff = _pinching().effects[0]
    cert = witness_search(eff, SIGMA_X)
    assert (cert.m, cert.k, cert.j) == (2, -1, 1)
    assert abs(cert.block_norm - 1.0) < 1e-12
    assert np.abs(cert.left_projector - np.diag([0.0, 1.0])).max() < 1e-12
    assert np.abs(cert.right_projector - np.diag([1.0, 0.0])).max() < 1e-12
    assert list(asdict(cert)) == ["m", "k", "j", "block_norm", "left_projector", "right_projector"]


def test_witness_search_reports_commuting_operator():
    eff = build_effect_set([np.diag([0.3, 0.7])]).effects[0]
    with pytest.raises(CommutesNoWitness):
        witness_search(eff, np.diag([2.0, 5.0]))


def test_witness_search_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        witness_search(_pinching().effects[0], np.eye(3))


def test_operator_arguments_share_one_shape_check():
    es = _pinching()
    calls = [
        lambda x: LuedersOperation(es).apply(x),
        lambda x: is_undisturbed_state(es, x),
        lambda x: witness_search(es.effects[0], x),
        lambda x: build_contractive_block(es, x, 2),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch, match=r"^operator shape \(3, 3\) does not match dimension 2$"):
            call(np.eye(3) / 3)


def test_witness_search_exhausts_on_tiny_gap():
    eff = build_effect_set([np.diag([0.5, 0.5 + 1e-7])]).effects[0]
    with pytest.raises(ResolutionExhausted):
        witness_search(eff, SIGMA_X)


def test_witness_search_scales_operators_near_the_top_of_the_double_range():
    # unscaled, ‖b‖ overflows to inf and no block can exceed the threshold inf·tol
    eff = build_effect_set([np.diag([0.1, 0.5, 0.9])]).effects[0]
    sign = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
    cert = witness_search(eff, 1.7e308 * sign)
    small = witness_search(eff, 1.7e308 * 2.0**-1014 * sign)
    assert (cert.m, cert.k, cert.j) == (small.m, small.k, small.j) == (4, 0, 3)
    assert cert.block_norm == math.ldexp(small.block_norm, 1014) == 1.7e308
    b = np.zeros((4, 4))
    b[:2, 2:] = 1.7e308
    with pytest.raises(InvalidArgument, match="double range"):
        witness_search(build_effect_set([np.diag([0.1, 0.1, 0.9, 0.9])]).effects[0], b)


def test_witness_routes_scale_tiny_operators_up_exactly():
    # Below about 1e-140 LAPACK's SVD rescales by a factor that is no power of two,
    # which moves the last bits; scaled up first, the norms scale back exactly.
    es = build_effect_set([np.diag([0.1, 0.5, 0.9])])
    x = np.array([[0.3, -1.0, 0.7], [1.0, 0.2, -1.0], [-0.6, 1.0, 0.1]]) + 0.25j
    cert, tiny = witness_search(es.effects[0], x), witness_search(es.effects[0], x * 2.0**-1000)
    assert (tiny.m, tiny.k, tiny.j) == (cert.m, cert.k, cert.j)
    assert tiny.block_norm == math.ldexp(cert.block_norm, -1000)
    rep, small = build_contractive_block(es, x, 40), build_contractive_block(es, x * 2.0**-1000, 40)
    assert small.achieved_ratio == rep.achieved_ratio
    assert (small.y_norm, small.image_norm) == (math.ldexp(rep.y_norm, -1000), math.ldexp(rep.image_norm, -1000))


@pytest.mark.parametrize("seed", range(8))
def test_witness_search_on_generated_sets(seed):
    es = generate_commuting_resolution(5, 3, seed=100 + seed)
    rng = np.random.Generator(np.random.Philox(500 + seed))
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = (g + g.conj().T) / 2
    cert = witness_search(es.effects[0], b)
    assert abs(cert.k - cert.j) >= 2
    assert cert.block_norm > 1e-9 * mk.operator_norm(b)
    # re-verify the certificate from its own projectors, not the search
    rebuilt = mk.operator_norm(cert.left_projector @ b @ cert.right_projector)
    assert abs(rebuilt - cert.block_norm) < 1e-12
    # the pair really couples windows at least 1/m apart in the spectrum
    assert np.abs(cert.left_projector @ cert.right_projector).max() < 1e-10
    again = witness_search(es.effects[0], b)
    assert (again.m, again.k, again.j) == (cert.m, cert.k, cert.j)
    assert again.block_norm == cert.block_norm
    # (m, k, j) is the first coupled separated pair at the first resolution that has one
    m, pair = 1, None
    while pair is None:
        m *= 2
        windows = _bins_by_definition(build_effect_set(es.matrices[:1]), m, range(-1, m))
        pair = _first_coupled_pair_by_scan(windows, windows, b, b, apart=2)
    assert ((cert.m,), (cert.k,), (cert.j,)) == ((m,), *pair)


@pytest.mark.parametrize("seed", range(8))
def test_witness_projectors_are_spectral_windows(seed):
    es = generate_commuting_resolution(5, 3, seed=100 + seed)
    rng = np.random.Generator(np.random.Philox(500 + seed))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    eff = es.effects[0]
    cert = witness_search(eff, b)
    m = cert.m
    assert np.array_equal(cert.left_projector, spectral_window(eff, cert.k, m))
    assert np.array_equal(cert.right_projector, spectral_window(eff, cert.j, m))


def test_contraction_bound_values():
    assert abs(contraction_bound(1, 2, 100) - 0.114975) < 1e-12
    # approaches 1/(2m²) for large p
    assert abs(contraction_bound(1, 4, 10**6) - 1.0 / 32.0) < 1e-6
    with pytest.raises(InvalidArgument):
        contraction_bound(0, 1, 1)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (3, 4)])
def test_contraction_threshold_brackets_sign_change(n, m):
    p = contraction_threshold(n, m)
    assert contraction_bound(n, m, p) > 0
    assert contraction_bound(n, m, p - 1) <= 0


def test_contraction_threshold_known_value():
    assert contraction_threshold(1, 1) == 5


def _threshold_by_scan(n, m):
    p = 1
    while contraction_bound(n, m, p) <= 0:
        p += 1
    return p


def test_contraction_threshold_matches_scan():
    mismatches = [
        (n, m)
        for n in range(1, 40)
        for m in range(1, 40)
        if contraction_threshold(n, m) != _threshold_by_scan(n, m)
    ]
    assert mismatches == []


def test_contraction_threshold_at_the_argument_limit():
    n = m = 10**6
    p = contraction_threshold(n, m)
    assert contraction_bound(n, m, p) > 0
    assert contraction_bound(n, m, p - 1) <= 0


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 5)])
def test_contraction_bound_monotone_and_capped(n, m):
    start = int(4 * math.sqrt(n) * m) + 1
    values = [contraction_bound(n, m, p) for p in range(start, start + 200)]
    assert all(b < a for b, a in zip(values, values[1:]))
    cap = 1.0 / (2 * m * m)
    assert all(v < cap for v in values)


@pytest.mark.parametrize("p_refine", [16, 64, 256])
def test_contractive_block_fixed_refinements(p_refine):
    for seed in range(5):
        es = generate_commuting_resolution(6, 2, seed=700 + seed)
        rng = np.random.Generator(np.random.Philox(800 + seed))
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rep = build_contractive_block(es, x, p_refine)
        assert rep.achieved_ratio >= rep.bound
        assert rep.achieved_ratio >= -1e-12
        assert abs(rep.refined_left[0] - rep.refined_right[0]) >= p_refine


def test_build_contractive_block_pinching():
    es = _pinching()
    p = contraction_threshold(2, 2)
    assert p == 12
    rep = build_contractive_block(es, SIGMA_X, p)
    assert (rep.n, rep.m, rep.p) == (2, 2, 12)
    assert rep.coarse_left == (-1, 1) and rep.coarse_right == (1, -1)
    assert rep.refined_left == (-1, 23) and rep.refined_right == (23, -1)
    assert abs(rep.refined_left[0] - rep.refined_right[0]) >= p
    assert abs(rep.y_norm - 1.0) < 1e-12
    # the pinching wipes this block out entirely
    assert rep.image_norm < 1e-12
    assert abs(rep.achieved_ratio - 1.0) < 1e-12
    assert rep.achieved_ratio >= rep.bound > 0
    assert np.abs(rep.left_projector @ rep.right_projector).max() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_build_contractive_block_on_generated_sets(seed):
    es = generate_commuting_resolution(5, 3, seed=100 + seed)
    rng = np.random.Generator(np.random.Philox(600 + seed))
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = (g + g.conj().T) / 2
    cert = witness_search(es.effects[0], x)
    p = contraction_threshold(es.n, cert.m)
    rep = build_contractive_block(es, x, p)
    assert rep.m == cert.m
    assert rep.coarse_left[0] == cert.k and rep.coarse_right[0] == cert.j
    assert abs(rep.refined_left[0] - rep.refined_right[0]) >= p
    assert rep.y_norm > 0
    assert rep.achieved_ratio >= rep.bound > 0
    ratio = (rep.y_norm - mk.operator_norm(LuedersOperation(es).apply(rep.y))) / rep.y_norm
    assert abs(ratio - rep.achieved_ratio) < 1e-12
    # both steps keep the first coupled pair in lexicographic order
    left = _bins_by_definition(es, cert.m, {cert.k})
    right = _bins_by_definition(es, cert.m, {cert.j})
    assert (rep.coarse_left, rep.coarse_right) == _first_coupled_pair_by_scan(left, right, x, x)
    y0 = left[rep.coarse_left] @ x @ right[rep.coarse_right]
    # fine bins outside the coarse pair give zero blocks, so the scan may run over all of them
    fine = _bins_by_definition(es, p * cert.m, range(-1, p * cert.m))
    assert (rep.refined_left, rep.refined_right) == _first_coupled_pair_by_scan(fine, fine, x, y0)


@pytest.mark.parametrize("seed", range(8))
def test_contractive_block_projectors_are_bin_products(seed):
    es = generate_commuting_resolution(5, 3, seed=100 + seed)
    rng = np.random.Generator(np.random.Philox(600 + seed))
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rep = build_contractive_block(es, x, 16)
    fine = rep.p * rep.m
    left = _bin_projection(es, rep.m, rep.coarse_left) @ _bin_projection(es, fine, rep.refined_left)
    right = _bin_projection(es, rep.m, rep.coarse_right) @ _bin_projection(es, fine, rep.refined_right)
    assert np.abs(rep.left_projector - left).max() < 1e-10
    assert np.abs(rep.right_projector - right).max() < 1e-10
    assert np.abs(left).max() > 0.1 and np.abs(right).max() > 0.1


def test_build_contractive_block_scales_operators_near_the_top_of_the_double_range():
    # unscaled, ‖x‖ overflows to inf and every refined block falls below the threshold inf·tol
    es = build_effect_set([np.diag([0.1, 0.5, 0.9])])
    x = 1.7e308 * np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])
    rep = build_contractive_block(es, x, 40)
    small = build_contractive_block(es, x * 2.0**-1024, 40)
    assert rep.m == small.m == 4
    assert rep.achieved_ratio == small.achieved_ratio >= rep.bound > 0
    assert rep.y_norm == math.ldexp(small.y_norm, 1024) == 1.7e308
    assert rep.image_norm == math.ldexp(small.image_norm, 1024)
    assert np.array_equal(rep.y, np.ldexp(small.y.real, 1024))
    b = np.zeros((4, 4))
    b[:2, 2:] = 1.7e308
    with pytest.raises(InvalidArgument, match="double range"):
        build_contractive_block(build_effect_set([np.diag([0.1, 0.1, 0.9, 0.9])]), b, 40)


def test_build_contractive_block_guards(monkeypatch):
    es = _pinching()
    with pytest.raises(InvalidArgument):
        build_contractive_block(es, SIGMA_X, 0)
    with pytest.raises(DimensionMismatch):
        build_contractive_block(es, np.eye(3), 2)
    from lueders.effects import generate_noncommuting_resolution

    noncommuting = generate_noncommuting_resolution(3, 3, seed=3)
    with pytest.raises(InvalidArgument):
        build_contractive_block(noncommuting, np.eye(3), 2)
    # p and the operator's shape are checked before the joint eigenspaces are formed
    monkeypatch.setattr(witness_module, "joint_eigenspaces", lambda es: pytest.fail("formed the joint eigenspaces"))
    with pytest.raises(InvalidArgument, match="refinement factor p"):
        build_contractive_block(noncommuting, np.eye(3), 0)
    with pytest.raises(DimensionMismatch):
        build_contractive_block(noncommuting, np.eye(2), 2)
