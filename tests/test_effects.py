import numpy as np
import pytest

from lueders import matkernel as mk
from lueders.effects import (
    MIN_TUPLE_SEPARATION,
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
    in_window,
    spectral_window,
    validate_effect,
    window_index,
)
from lueders.errors import (
    DimensionMismatch,
    InvalidInterval,
    NotHermitian,
    NotSubnormalized,
    SpectrumAboveOne,
    SpectrumBelowZero,
)
from lueders.operation import joint_eigenspaces


def test_validate_effect_accepts_and_caches_spectrum():
    eff = validate_effect(np.diag([0.5, 0.5]))
    assert eff.dim == 2
    assert np.abs(eff.eigenvalues - 0.5).max() < 1e-14


def test_validate_effect_clips_dust_into_unit_interval():
    eff = validate_effect(np.diag([1.0 + 5e-11, -5e-11]))
    assert eff.eigenvalues[0] == 0.0
    assert eff.eigenvalues[-1] == 1.0


def test_validate_effect_rejects_bad_spectra():
    with pytest.raises(SpectrumAboveOne):
        validate_effect(np.diag([1.1, 0.0]))
    with pytest.raises(SpectrumBelowZero):
        validate_effect(np.diag([-0.2, 0.5]))
    with pytest.raises(NotHermitian):
        validate_effect(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_build_effect_set_classifies_identity():
    es = build_effect_set([np.eye(3)])
    assert es.normalization is Normalization.RESOLUTION
    assert es.commuting
    assert es.max_pairwise_commutator_norm == 0.0


def test_build_effect_set_classifies_pinching_pair():
    es = build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert es.normalization is Normalization.RESOLUTION
    assert es.commuting


def test_build_effect_set_effect_and_complement_root():
    rng = np.random.Generator(np.random.Philox(3))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    e = (q * rng.uniform(0, 1, 4)) @ q.conj().T
    e = (e + e.conj().T) / 2
    partner = mk.sqrt_psd(np.eye(4) - e @ e)
    es = build_effect_set([e, partner])
    assert es.normalization is Normalization.RESOLUTION
    assert es.commuting
    assert np.linalg.norm(es.sum_of_squares - np.eye(4)) < 1e-12


def test_build_effect_set_rejects_dimension_mix():
    with pytest.raises(DimensionMismatch):
        build_effect_set([np.eye(2), np.eye(3)])


def test_build_effect_set_rejects_oversized_sum():
    # valid effects whose squares sum to 1.0404 * I
    a = 1.02 / np.sqrt(2)
    with pytest.raises(NotSubnormalized):
        build_effect_set([np.diag([a, a]), np.diag([a, a])])


# ---------------------------------------------------------------------------
# spectral windows


def test_spectral_window_selects_halfopen():
    eff = validate_effect(np.diag([0.2, 0.6]))
    upper = spectral_window(eff, 0.5, 1.0)
    assert np.abs(upper - np.diag([0.0, 1.0])).max() < 1e-14
    # the left edge is excluded, the right edge included
    closed_at_06 = spectral_window(eff, 0.2, 0.6)
    assert np.abs(closed_at_06 - np.diag([0.0, 1.0])).max() < 1e-14
    closed_at_02 = spectral_window(eff, 0.1, 0.2)
    assert np.abs(closed_at_02 - np.diag([1.0, 0.0])).max() < 1e-14


def test_spectral_window_snaps_edge_dust():
    # an eigenvalue a hair above the left edge snaps onto it and stays out
    eff = validate_effect(np.diag([0.2 + 1e-12, 0.6]))
    win = spectral_window(eff, 0.2, 0.6)
    assert np.abs(win - np.diag([0.0, 1.0])).max() < 1e-14


def test_spectral_window_rejects_empty_interval():
    eff = validate_effect(np.diag([0.2, 0.6]))
    with pytest.raises(InvalidInterval):
        spectral_window(eff, 0.5, 0.5)


def test_empty_window_is_the_exact_zero_matrix():
    win = spectral_window(validate_effect(np.diag([0.2, 0.6, 0.9])), 0.3, 0.5)
    assert win.dtype == np.complex128 and win.shape == (3, 3)
    assert not win.any()


def test_windows_are_right_continuous():
    eff = validate_effect(np.diag([0.2, 0.5, 0.9]))
    # no eigenvalue in (0.5, 0.5 + eps] for eps below the gap
    base = spectral_window(eff, -1.0, 0.5)
    nudged = spectral_window(eff, -1.0, 0.5 + 0.1)
    assert np.abs(base - nudged).max() < 1e-14


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_windows_partition_unity(m):
    rng = np.random.Generator(np.random.Philox(17))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    e = (q * rng.uniform(0, 1, 5)) @ q.conj().T
    eff = validate_effect((e + e.conj().T) / 2)
    total = mk.sum_terms([spectral_window(eff, k / m, (k + 1) / m) for k in range(-1, m)])
    assert np.linalg.norm(total - np.eye(5)) < 1e-10


def test_adjacent_windows_are_orthogonal():
    eff = validate_effect(np.diag([0.1, 0.4, 0.8]))
    low = spectral_window(eff, 0.0, 0.5)
    high = spectral_window(eff, 0.5, 1.0)
    assert np.abs(low @ high).max() < 1e-14


def test_window_index_edges_and_snap():
    assert window_index(0.0, 4) == -1
    assert window_index(1.0, 4) == 3
    assert window_index(0.25, 4) == 0  # right edge belongs to its window
    assert window_index(0.25 + 1e-12, 4) == 0  # snap keeps edge dust in place
    assert window_index(0.26, 4) == 1
    assert in_window(0.6, 0.5, 1.0) and not in_window(0.5, 0.5, 1.0)


@pytest.mark.parametrize("seed", range(10))
def test_window_index_nests_under_refinement(seed):
    rng = np.random.Generator(np.random.Philox(200 + seed))
    for _ in range(50):
        lam = float(rng.uniform(0, 1))
        m = int(rng.integers(2, 32))
        p = int(rng.integers(2, 16))
        coarse = window_index(lam, m)
        fine = window_index(lam, p * m)
        assert p * coarse <= fine <= p * (coarse + 1) - 1


# ---------------------------------------------------------------------------
# generators


def test_generator_is_bit_deterministic():
    a = generate_commuting_resolution(6, 4, seed=7)
    b = generate_commuting_resolution(6, 4, seed=7)
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_generator_single_effect_is_identity():
    es = generate_commuting_resolution(5, 1, seed=3)
    assert np.abs(es.matrices[0] - np.eye(5)).max() < 1e-12


def test_generator_dim_one_is_point_on_circle():
    es = generate_commuting_resolution(1, 2, seed=5)
    e1, e2 = (float(m[0, 0].real) for m in es.matrices)
    assert e1 >= 0 and e2 >= 0
    assert abs(e1 * e1 + e2 * e2 - 1.0) < 1e-14


@pytest.mark.parametrize("d,n,seed", [(2, 2, 0), (4, 3, 1), (6, 4, 7), (8, 5, 11)])
def test_commuting_resolution_invariants(d, n, seed):
    es = generate_commuting_resolution(d, n, seed)
    assert es.commuting
    assert es.normalization is Normalization.RESOLUTION
    assert np.linalg.norm(es.sum_of_squares - np.eye(d)) < 1e-12
    assert es.max_pairwise_commutator_norm < 1e-12
    # exactly jointly diagonal: the joint basis strips all off-diagonal mass
    u = np.hstack([b.basis for b in joint_eigenspaces(es).blocks])
    for e in es.matrices:
        c = u.conj().T @ e @ u
        assert np.abs(c - np.diag(np.diag(c))).max() < 1e-10


def test_joint_tuples_keep_their_distance():
    es = generate_commuting_resolution(8, 3, seed=19)
    values = np.array([b.values for b in joint_eigenspaces(es).blocks])
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            dist = np.linalg.norm(values[i] - values[j])
            assert dist == 0.0 or dist >= 0.9 * MIN_TUPLE_SEPARATION


def test_subnormalized_unit_rank_matches_fraction():
    es = generate_commuting_subnormalized(5, 3, seed=11, unit_fraction=0.4)
    w = np.linalg.eigvalsh(es.sum_of_squares)
    assert es.normalization is Normalization.SUBNORMALIZED
    assert int(np.sum(np.abs(w - 1.0) <= 1e-12)) == 2
    # everything else stays clearly below 1
    assert w[np.abs(w - 1.0) > 1e-12].max() <= 0.95**2 + 1e-12


def test_subnormalized_zero_fraction_has_no_unit_spectrum():
    es = generate_commuting_subnormalized(4, 2, seed=2, unit_fraction=0.0)
    w = np.linalg.eigvalsh(es.sum_of_squares)
    assert w[-1] <= 0.95**2 + 1e-12
    assert w[0] >= 0.3**2 - 1e-12


def test_subnormalized_full_fraction_is_resolution():
    es = generate_commuting_subnormalized(3, 2, seed=4, unit_fraction=1.0)
    assert es.normalization is Normalization.RESOLUTION


@pytest.mark.parametrize("d,n,seed", [(2, 3, 3), (4, 3, 0), (6, 5, 9)])
def test_noncommuting_resolution_invariants(d, n, seed):
    es = generate_noncommuting_resolution(d, n, seed)
    assert not es.commuting
    assert es.max_pairwise_commutator_norm >= 0.01
    assert es.normalization is Normalization.RESOLUTION
    assert np.linalg.norm(es.sum_of_squares - np.eye(d)) < 1e-10
    again = generate_noncommuting_resolution(d, n, seed)
    for x, y in zip(es.matrices, again.matrices):
        assert np.array_equal(x, y)


def test_noncommuting_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        generate_noncommuting_resolution(1, 3, seed=0)
    with pytest.raises(ValueError):
        generate_noncommuting_resolution(4, 2, seed=0)
