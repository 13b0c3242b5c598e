import numpy as np
import pytest

from lueders import effects as effects_module, matkernel as mk
from lueders.effects import (
    MIN_TUPLE_SEPARATION,
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
    spectral_window,
    validate_effect,
    window_index,
)
from lueders.errors import (
    DimensionMismatch,
    InvalidArgument,
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


@pytest.mark.parametrize("s", [1e-170, 1e-300, 5e-324])
def test_tiny_asymmetric_matrices_are_not_hermitian(s):
    # Unscaled, every Frobenius square underflows to 0, and 0 > HERMITIAN * 0 is false.
    m = np.array([[0.0, s], [0.0, 0.0]])
    for call in (validate_effect, lambda m: build_effect_set([m]), lambda m: build_effect_set([np.eye(2) / 2, m])):
        with pytest.raises(NotHermitian, match=f"^asymmetry {s * np.sqrt(2):.3e} exceeds"):
            call(m)


def test_tiny_diagonal_effect_validates_bit_for_bit():
    m = np.diag([1e-300, 5e-324]).astype(complex)
    w, u = np.linalg.eigh(m)
    for eff in (validate_effect(m), build_effect_set([m]).effects[0]):
        assert eff.matrix.tobytes() == m.tobytes()
        assert eff.eigenvalues.tobytes() == np.clip(w, 0.0, 1.0).tobytes()
        assert eff.eigenvectors.tobytes() == u.tobytes()


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
    w, v = np.linalg.eigh(np.eye(4) - e @ e)
    partner = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    partner = (partner + partner.conj().T) / 2
    es = build_effect_set([e, partner])
    assert es.normalization is Normalization.RESOLUTION
    assert es.commuting
    assert np.linalg.norm(es.sum_of_squares - np.eye(4)) < 1e-12


@pytest.mark.parametrize(
    "deficit,normalization",
    [(5e-10, Normalization.RESOLUTION), (2e-9, Normalization.SUBNORMALIZED)],
)
def test_unit_deficit_of_the_sum_of_squares_is_cut_at_cluster(deficit, normalization):
    # F = diag(1, 1 - deficit); the cut is CLUSTER = 1e-9 on every |w - 1|.
    es = build_effect_set([np.diag([1.0, np.sqrt(1.0 - deficit)])])
    assert abs(1.0 - es.sum_of_squares_eigenvalues[0] - deficit) < 1e-15
    assert es.normalization is normalization


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
    # At m = 5 the windows are (k/5, (k+1)/5]: 0.2 closes window 0 and 0.6 closes window 2.
    eff = validate_effect(np.diag([0.2, 0.6]))
    assert np.abs(spectral_window(eff, 1, 2) - np.diag([0.0, 1.0])).max() < 1e-14
    # the right edge is included, the left edge excluded
    assert np.abs(spectral_window(eff, 0, 5) - np.diag([1.0, 0.0])).max() < 1e-14
    assert not spectral_window(eff, 1, 5).any()
    assert np.abs(spectral_window(eff, 2, 5) - np.diag([0.0, 1.0])).max() < 1e-14
    assert not spectral_window(eff, 3, 5).any()


def test_spectral_window_snaps_edge_dust():
    # an eigenvalue a hair above the edge 1/5 snaps onto it and stays in window 0
    eff = validate_effect(np.diag([0.2 + 1e-12, 0.6]))
    assert np.abs(spectral_window(eff, 0, 5) - np.diag([1.0, 0.0])).max() < 1e-14
    assert not spectral_window(eff, 1, 5).any()


@pytest.mark.parametrize("m", [0, -3])
def test_spectral_window_rejects_resolution_below_one(m):
    eff = validate_effect(np.diag([0.2, 0.6]))
    with pytest.raises(InvalidArgument):
        spectral_window(eff, 0, m)


def test_empty_window_is_the_exact_zero_matrix():
    eff = validate_effect(np.diag([0.2, 0.6, 0.9]))
    # window 1 at m = 5 is (0.2, 0.4]; indices -2 and 5 lie outside {-1, ..., 4}
    for k in (1, -2, 5):
        win = spectral_window(eff, k, 5)
        assert win.dtype == np.complex128 and win.shape == (3, 3)
        assert not win.any()


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_windows_partition_unity(m):
    rng = np.random.Generator(np.random.Philox(17))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    e = (q * rng.uniform(0, 1, 5)) @ q.conj().T
    eff = validate_effect((e + e.conj().T) / 2)
    total = mk.sum_terms([spectral_window(eff, k, m) for k in range(-1, m)])
    assert np.linalg.norm(total - np.eye(5)) < 1e-10


def test_adjacent_windows_are_orthogonal():
    eff = validate_effect(np.diag([0.1, 0.4, 0.8]))
    low = spectral_window(eff, 0, 2)
    high = spectral_window(eff, 1, 2)
    assert np.abs(low @ high).max() < 1e-14


def test_window_index_edges_and_snap():
    assert window_index(0.0, 4) == -1
    assert window_index(1.0, 4) == 3
    assert window_index(0.25, 4) == 0  # right edge belongs to its window
    assert window_index(0.25 + 1e-12, 4) == 0  # snap keeps edge dust in place
    assert window_index(0.26, 4) == 1


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
    u = np.hstack([b.basis for b in joint_eigenspaces(es)])
    for e in es.matrices:
        c = u.conj().T @ e @ u
        assert np.abs(c - np.diag(np.diag(c))).max() < 1e-10


def test_joint_tuples_keep_their_distance():
    es = generate_commuting_resolution(8, 3, seed=19)
    values = np.array([b.values for b in joint_eigenspaces(es)])
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_effect_set([]),
        lambda: generate_commuting_resolution(0, 2, seed=0),
        lambda: generate_commuting_subnormalized(3, 0, seed=0, unit_fraction=0.5),
        lambda: generate_commuting_subnormalized(3, 2, seed=0, unit_fraction=1.5),
        lambda: generate_commuting_resolution(3, 2, seed=-1),
        lambda: mk.as_complex_matrix([[np.nan]]),
    ],
    ids=["empty-set", "d0", "n0", "unit-fraction", "negative-seed", "nan-entry"],
)
def test_bad_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()


def test_noncommuting_rejects_degenerate_requests():
    with pytest.raises(InvalidArgument):
        generate_noncommuting_resolution(1, 3, seed=0)
    with pytest.raises(InvalidArgument):
        generate_noncommuting_resolution(4, 2, seed=0)


def test_sum_of_squares_eigenvalues_are_those_of_the_hermitized_sum():
    for es in (
        generate_commuting_resolution(5, 3, seed=8),
        generate_commuting_subnormalized(5, 3, seed=8, unit_fraction=0.4),
        generate_noncommuting_resolution(5, 3, seed=8),
    ):
        f = es.sum_of_squares
        assert np.array_equal(es.sum_of_squares_eigenvalues, np.linalg.eigvalsh((f + f.conj().T) / 2))


# ---------------------------------------------------------------------------
# the largest pairwise commutator norm


def _brute_max_commutator(es):
    mats = es.matrices
    return max(
        (mk.operator_norm(a @ b - b @ a) for i, a in enumerate(mats) for b in mats[i + 1:]),
        default=0.0,
    )


def _generated(flavor, d, n):
    if flavor == "commuting-resolution":
        return generate_commuting_resolution(d, n, seed=5)
    if flavor == "commuting-subnormalized":
        return generate_commuting_subnormalized(d, n, seed=5, unit_fraction=0.5)
    return generate_noncommuting_resolution(d, n, seed=5)


_FLAVORS = ("commuting-resolution", "commuting-subnormalized", "noncommuting-resolution")


@pytest.mark.parametrize(
    "flavor,d,n",
    [
        (flavor, d, n)
        for flavor in _FLAVORS
        for d in (1, 2, 8, 64)
        for n in (1, 2, 3, 32, 64)
        # the non-commuting generator needs d >= 2 and n >= 3
        if flavor != "noncommuting-resolution" or (d >= 2 and n >= 3)
    ],
)
def test_max_commutator_norm_matches_every_pair(flavor, d, n):
    es = _generated(flavor, d, n)
    assert es.max_pairwise_commutator_norm == _brute_max_commutator(es)


@pytest.mark.parametrize("flavor,d,n", [(f, d, n) for f in _FLAVORS for d in (2, 8, 64) for n in (3, 32)])
def test_stacked_validation_stores_what_validate_effect_stores(flavor, d, n):
    # build_effect_set validates the (n, d, d) stack with one batched check and eigh; each
    # stored matrix, spectrum and eigenbasis is bit for bit what validate_effect gives alone.
    es = _generated(flavor, d, n)
    for e in es.effects:
        alone = validate_effect(e.matrix)
        for part in ("matrix", "eigenvalues", "eigenvectors"):
            stored, ref = getattr(e, part), getattr(alone, part)
            assert stored.shape == ref.shape and stored.tobytes() == ref.tobytes()


def _six_dim_effects():
    e1 = np.zeros((6, 6), dtype=complex)
    e1[:2, :2] = [[0.6, 0.2], [0.2, 0.3]]
    e1[2, 2] = e1[5, 5] = 0.5
    e1[3:5, 3:5] = [[0.4, 0.1], [0.1, 0.2]]
    e1[0, 5], e1[5, 0] = 0.1j, -0.1j
    e4 = np.diag([0.1, 0.1, 0.2, 0.3, 0.4, 0.5]).astype(complex)
    e4[0, 5] = e4[5, 0] = 0.05
    return [e1, np.diag([0.3, 0.6, 0.1, 0.5, 0.5, 0.2]).astype(complex), 0.25 * np.eye(6, dtype=complex), e4]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-155, 1e-158, 1e-160])
def test_max_commutator_norm_of_tiny_effects(scale):
    # The commutators reach the subnormal range; C†C of the unscaled C would underflow to 0.
    es = build_effect_set([e * scale for e in _six_dim_effects()])
    assert es.max_pairwise_commutator_norm > 0.0
    assert es.max_pairwise_commutator_norm == _brute_max_commutator(es)


def _counting_operator_norm(monkeypatch):
    calls = []
    norm = mk.operator_norm

    def counted(m):
        calls.append(m)
        return norm(m)

    monkeypatch.setattr(mk, "operator_norm", counted)
    return calls


def _counting_svds(monkeypatch):
    """Record each matrix that np.linalg.svd factors, one entry per matrix of a stack."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.extend(a if np.ndim(a) == 3 else [a])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_exactly_commuting_effects_take_no_svd(monkeypatch):
    calls = _counting_svds(monkeypatch)
    es = build_effect_set([np.diag([0.5, 0.1, 0.2]), np.diag([0.3, 0.4, 0.5]), np.diag([0.0, 0.2, 0.1])])
    assert es.max_pairwise_commutator_norm == 0.0 and es.commuting
    assert calls == []


def test_classification_is_computed_on_first_read_only(monkeypatch):
    # build_effect_set forms no commutator; the first read of either property classifies once.
    calls = []
    max_norm = effects_module._max_commutator_norm
    monkeypatch.setattr(effects_module, "_max_commutator_norm", lambda mats: calls.append(1) or max_norm(mats))
    es = generate_noncommuting_resolution(4, 3, seed=4)
    calls.clear()
    es = build_effect_set(es.matrices)
    assert calls == []
    assert not es.commuting and es.max_pairwise_commutator_norm >= 0.01
    assert not es.commuting
    assert calls == [1]


def test_commuting_set_at_d32_takes_few_svds(monkeypatch):
    # Every commutator is rounding dust, so many Schatten-4 bounds beat the best norm found so
    # far; the Schatten-8 bound of the same C lets only a few of them reach an SVD.
    es = generate_commuting_resolution(32, 32, seed=0)
    calls = _counting_svds(monkeypatch)
    norm = es.max_pairwise_commutator_norm
    monkeypatch.undo()
    assert es.commuting and 1 <= len(calls) <= 8
    assert norm == _brute_max_commutator(es)


def _floor_set(weight: float):
    """0.5·I, diag(0.6, 0.2) and weight·|+⟩⟨+|: only the last pair fails to commute, ‖[E₂, E₃]‖ = 0.2·weight."""
    return build_effect_set([0.5 * np.eye(2), np.diag([0.6, 0.2]), weight * np.full((2, 2), 0.5)])


def test_noncommuting_generator_stops_at_the_first_pair_above_the_floor(monkeypatch):
    calls = _counting_operator_norm(monkeypatch)
    es = generate_noncommuting_resolution(8, 6, seed=3)
    monkeypatch.undo()
    # One norm scales the draw (first attempt), one is the commutator of the first pair.
    a, b = es.matrices[:2]
    assert len(calls) == 2 and np.array_equal(calls[1], a @ b - b @ a)
    assert mk.operator_norm(calls[1]) >= 0.01
    assert es.max_pairwise_commutator_norm >= mk.operator_norm(calls[1])


def test_noncommuting_generator_keeps_a_draw_whose_last_pair_alone_reaches_the_floor(monkeypatch):
    drawn = _floor_set(0.1)
    assert drawn.max_pairwise_commutator_norm == _brute_max_commutator(drawn) >= 0.01
    monkeypatch.setattr(effects_module, "build_effect_set", lambda mats: drawn)
    assert generate_noncommuting_resolution(4, 3, seed=0) is drawn


def test_noncommuting_generator_redraws_when_no_pair_reaches_the_floor(monkeypatch):
    below = _floor_set(0.0495)
    assert 0.0 < below.max_pairwise_commutator_norm < 0.01
    expected = generate_noncommuting_resolution(4, 3, seed=0)
    attempts = []
    build = effects_module.build_effect_set

    def first_below(mats):
        attempts.append(mats)
        return below if len(attempts) == 1 else build(mats)

    monkeypatch.setattr(effects_module, "build_effect_set", first_below)
    es = generate_noncommuting_resolution(4, 3, seed=0)
    assert len(attempts) == 2 and es is not below
    assert es.max_pairwise_commutator_norm >= 0.01
    assert not all(np.array_equal(x, y) for x, y in zip(es.matrices, expected.matrices))


def _pinching_pair(theta: float, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """weight·P and weight·Q for P = |0⟩⟨0| and Q the projector onto (cos θ, sin θ): one singular value pair."""
    v = np.array([np.cos(theta), np.sin(theta)])
    return weight * np.diag([1.0, 0.0]), weight * np.outer(v, v)


def test_max_commutator_norm_looks_past_the_largest_bound(monkeypatch):
    # E1, E2 repeat one 2×2 pair over four blocks: eight singular values 0.25, so
    # their bound 0.25·8^¼ ≈ 0.42 is the largest.  E3, E4 live on a fifth block
    # with two singular values ≈ 0.29: a smaller bound (≈ 0.35) but the larger norm.
    p, q = _pinching_pair(np.pi / 4, 0.5)
    r, s = _pinching_pair(0.9, 0.6)
    e1, e2 = (np.kron(np.diag([1.0, 1, 1, 1, 0]), m) for m in (p, q))
    e3, e4 = (np.block([[np.zeros((8, 8)), np.zeros((8, 2))], [np.zeros((2, 8)), m]]) for m in (r, s))
    es = build_effect_set([e1, e2, e3, e4])
    calls = _counting_svds(monkeypatch)
    norm = es.max_pairwise_commutator_norm  # classified on first read
    monkeypatch.undo()
    assert len(calls) == 2
    assert norm == es.max_pairwise_commutator_norm
    assert mk.operator_norm(calls[0]) < mk.operator_norm(calls[1])
    assert es.max_pairwise_commutator_norm == _brute_max_commutator(es) == mk.operator_norm(calls[1])


def test_hermitian_part_keeps_the_bits_of_the_plain_halves():
    # The in-place halves must give exactly np.where(M == M†, M, M/2 + M†/2), signs of zero
    # included; multiplying by 0.5 instead of dividing by 2 would flip some of them.
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.3, -1.0, 1.7976931348623157e308])
    rng = np.random.Generator(np.random.Philox(5))
    for d, n in [(1, 1), (2, 3), (3, 2), (5, 4)]:
        for _ in range(50):
            parts = np.where(rng.random((n, d, d, 2)) < 0.5, rng.choice(values, (n, d, d, 2)), rng.standard_normal((n, d, d, 2)))
            stack = parts.view(complex)[..., 0]
            with np.errstate(over="ignore", invalid="ignore"):  # M + M† overflows at the largest double
                stack[: n // 2] += np.swapaxes(stack[: n // 2], -1, -2).conj()  # some exactly Hermitian
                adj = np.swapaxes(stack, -1, -2).conj()
                want = np.where(stack == adj, stack, stack / 2 + adj / 2)
                got, one = effects_module._hermitian_part(stack), effects_module._hermitian_part(stack[0])
            assert got.tobytes() == want.tobytes()
            assert one.tobytes() == want[0].tobytes()
