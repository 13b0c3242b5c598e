import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from lueders import matkernel as mk
from lueders.effects import (
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from lueders.errors import (
    DimensionMismatch,
    InvalidArgument,
    IsResolution,
    NotCommuting,
    NotDensityMatrix,
    NotResolution,
)
from lueders.operation import (
    LuedersOperation,
    channel_norm,
    commutant,
    fixed_point_space,
    is_undisturbed_state,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from lueders.rng import philox_generator


def _pinching():
    return build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def _rand(d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_apply_identity_set_is_identity_map():
    op = LuedersOperation(build_effect_set([np.eye(3)]))
    b = _rand(3, 1)
    assert np.array_equal(op.apply(b), b)


def test_apply_pinching_kills_offdiagonal():
    op = LuedersOperation(_pinching())
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.abs(op.apply(b) - np.diag([1.0, 4.0])).max() < 1e-14


def test_apply_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        LuedersOperation(_pinching()).apply(np.eye(3))


@pytest.mark.parametrize("seed", range(10))
def test_superoperator_agrees_with_apply(seed):
    es = generate_commuting_resolution(4, 3, seed)
    op = LuedersOperation(es)
    b = _rand(4, 300 + seed)
    via_matrix = mk.unvec(op.superoperator @ mk.vec(b), 4)
    assert np.abs(via_matrix - op.apply(b)).max() < 1e-11


def test_superoperator_of_pinching_in_vec_order():
    op = LuedersOperation(_pinching())
    assert np.abs(op.superoperator - np.diag([1.0, 0.0, 0.0, 1.0])).max() < 1e-14


def test_apply_preserves_hermiticity_and_positivity():
    es = generate_noncommuting_resolution(4, 3, seed=8)
    op = LuedersOperation(es)
    h = (_rand(4, 5) + _rand(4, 5).conj().T) / 2
    assert mk.hermitian_defect(op.apply(h)) < 1e-12
    g = _rand(4, 6)
    psd = g @ g.conj().T
    assert np.linalg.eigvalsh(op.apply(psd))[0] > -1e-12


def test_resolution_superoperator_spectrum_and_unitality():
    es = generate_commuting_resolution(5, 3, seed=21)
    op = LuedersOperation(es)
    w = np.linalg.eigvalsh(op.superoperator)
    assert w[0] > -1e-9 and w[-1] < 1 + 1e-9
    assert np.linalg.norm(op.apply(np.eye(5)) - np.eye(5)) < 1e-12


def test_fixed_space_of_identity_set_is_everything():
    assert fixed_point_space(LuedersOperation(build_effect_set([np.eye(3)]))).dim == 9


def test_fixed_space_of_pinching_is_diagonal():
    sub = fixed_point_space(LuedersOperation(_pinching()))
    # vec(E₁₁) and vec(E₂₂) are the first and last unit vectors of C⁴
    diag = mk.OperatorSubspace(2, np.eye(4, dtype=complex)[:, [0, 3]])
    cmp = mk.subspaces_equal(sub, diag)
    assert cmp.equal and sub.dim == 2


def test_fixed_space_of_single_subnormalized_effect():
    es = build_effect_set([np.diag([1.0, 0.5])])
    sub = fixed_point_space(LuedersOperation(es))
    only = mk.OperatorSubspace(2, np.eye(4, dtype=complex)[:, [0]])
    assert sub.dim == 1
    assert mk.subspaces_equal(sub, only).equal


def test_fixed_space_members_are_fixed():
    es = generate_commuting_resolution(6, 3, seed=31)
    op = LuedersOperation(es)
    for c in fixed_point_space(op).vectors.T:
        b = mk.unvec(c, 6)
        assert np.linalg.norm(op.apply(b) - b) < 1e-9


@pytest.mark.parametrize(
    "generate",
    [
        lambda: generate_commuting_resolution(16, 3, seed=16),
        lambda: generate_commuting_subnormalized(16, 3, seed=16, unit_fraction=0.5),
        lambda: generate_noncommuting_resolution(16, 3, seed=16),
    ],
    ids=["cr", "cs", "nc"],
)
def test_fixed_space_peak_memory_at_d16(generate):
    # At most three complex d²×d² arrays (3·16·d⁴ bytes) are alive at once;
    # the Kronecker sum of the complex superoperator route held five.
    op = LuedersOperation(generate())
    d = op.dim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fixed_point_space(op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * d**4


def test_commutant_members_commute():
    es = generate_commuting_resolution(6, 3, seed=31)
    for c in commutant(es).vectors.T:
        b = mk.unvec(c, 6)
        for e in es.matrices:
            assert mk.operator_norm(b @ e - e @ b) < 1e-9


def test_commutant_of_identity_and_pinching():
    assert commutant(build_effect_set([np.eye(3)])).dim == 9
    assert commutant(_pinching()).dim == 2


@pytest.mark.parametrize(
    "generate,dim",
    [(generate_noncommuting_resolution, 1), (generate_commuting_resolution, 64)],
    ids=["noncommuting", "commuting"],
)
def test_commutant_at_d64_n64(generate, dim):
    # The dense (n·d²)×d² commutator stack would take about 17 GB here.
    es = generate(64, 64, seed=73)
    sub = commutant(es)
    assert sub.dim == dim
    b = mk.unvec(sub.vectors[:, -1], 64)
    assert max(mk.operator_norm(b @ e - e @ b) for e in es.matrices) < 1e-9


def test_commutant_is_contained_in_fixed_space_for_resolutions():
    es = generate_noncommuting_resolution(5, 4, seed=12)
    op = LuedersOperation(es)
    for c in commutant(es).vectors.T:
        b = mk.unvec(c, 5)
        assert np.linalg.norm(op.apply(b) - b) < 1e-9


def test_joint_eigenspaces_trivial_and_degenerate():
    blocks = joint_eigenspaces(build_effect_set([np.eye(3)]))
    assert [b.dim for b in blocks] == [3]
    blocks2 = joint_eigenspaces(build_effect_set([np.diag([0.2, 0.2, 0.7])]))
    assert [b.dim for b in blocks2] == [2, 1]
    assert np.abs(blocks2[0].values - [0.2]).max() < 1e-12
    assert np.abs(blocks2[1].values - [0.7]).max() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_joint_eigenspaces_act_as_scalars(seed):
    es = generate_commuting_resolution(6, 3, seed=40 + seed)
    blocks = joint_eigenspaces(es)
    assert sum(b.dim for b in blocks) == 6
    u = np.hstack([b.basis for b in blocks])
    assert np.abs(u.conj().T @ u - np.eye(6)).max() < 1e-10
    for block in blocks:
        for e, lam in zip(es.matrices, block.values):
            assert np.abs(e @ block.basis - lam * block.basis).max() < 1e-9
    assert commutant(es).dim == sum(b.dim**2 for b in blocks)


def test_joint_eigenspaces_reject_noncommuting():
    with pytest.raises(NotCommuting):
        joint_eigenspaces(generate_noncommuting_resolution(3, 3, seed=1))


def test_verify_resolution_on_pinching():
    rep = verify_resolution_fixed_points(_pinching())
    assert rep.theorem == "3.1"
    assert rep.verdict and rep.fixed_dim == rep.target_dim == 2
    assert rep.distance < 1e-9
    assert asdict(rep) == {
        "theorem": "3.1",
        "fixed_dim": 2,
        "target_dim": 2,
        "distance": rep.distance,
        "verdict": True,
    }


@pytest.mark.parametrize("seed", range(6))
def test_verify_resolution_on_generated_sets(seed):
    es = generate_commuting_resolution(5, 2 + seed % 3, seed=50 + seed)
    rep = verify_resolution_fixed_points(es)
    assert rep.verdict and rep.distance <= 1e-8


def test_verify_resolution_rejects_subnormalized():
    with pytest.raises(NotResolution):
        verify_resolution_fixed_points(build_effect_set([np.diag([0.8, 0.8])]))


def _unit_deficit_pair(eps, q=np.eye(3)):
    """E₁ = q·diag(0.6, 1, 0.28r)·q†, E₂ = q·diag(0.8, 0, 0.96r)·q†, r = √(1 - ε): F = q·diag(1, 1, 1 - ε)·q†.

    The default q = I gives the diagonal effects exactly.
    """
    r = np.sqrt(1.0 - eps)
    mats = [(q * t) @ q.conj().T for t in ([0.6, 1.0, 0.28 * r], [0.8, 0.0, 0.96 * r])]
    return build_effect_set([(m + m.conj().T) / 2 for m in mats])


def _seeded_unitary():
    g = philox_generator(3).standard_normal((2, 3, 3))
    return np.linalg.qr(g[0] + 1j * g[1])[0]


@pytest.mark.parametrize(
    "eps,normalization,report",
    [
        (0.0, Normalization.RESOLUTION, ("3.1", 3, 3, True)),
        (1e-12, Normalization.RESOLUTION, ("3.1", 3, 3, True)),
        (5e-11, Normalization.RESOLUTION, ("3.1", 3, 3, True)),
        # Beyond CLUSTER the unit eigenspace of F is two-dimensional, and so is Fix(Φ).
        (2e-9, Normalization.SUBNORMALIZED, ("3.2", 2, 2, True)),
        (5e-9, Normalization.SUBNORMALIZED, ("3.2", 2, 2, True)),
        (9e-9, Normalization.SUBNORMALIZED, ("3.2", 2, 2, True)),
    ],
)
def test_unit_deficit_decides_the_theorem_by_the_unit_eigenspace_cut(eps, normalization, report):
    es = _unit_deficit_pair(eps)
    assert es.normalization is normalization
    if normalization is Normalization.RESOLUTION:
        rep = verify_resolution_fixed_points(es)
    else:
        with pytest.raises(NotResolution):
            verify_resolution_fixed_points(es)
        rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == report


@pytest.mark.parametrize("eps", [2e-9, 1e-8, 1e-7, 1e-6])
def test_rotated_unit_deficit_keeps_the_two_dimensional_target(eps):
    # An eigh of F resolves its unit eigenvectors only to about ε_mach/ε, so a
    # target cut with a projector built from them loses both dimensions up to
    # ε = 1e-6.  The singular values of X ↦ (I - F)X on the commutant are 0, 0 and ε.
    es = _unit_deficit_pair(eps, _seeded_unitary())
    assert es.commuting and es.normalization is Normalization.SUBNORMALIZED
    rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim) == ("3.2", 2, 2)
    if eps >= 1e-7:
        # Below, the Fix side is off by 5e-8 to 1.7e-7, which is a conditioning question of its own.
        assert rep.verdict and rep.distance <= 1e-8


def test_verify_subnormalized_scalar_effect_has_trivial_fixed_space():
    rep = verify_subnormalized_fixed_points(build_effect_set([0.8 * np.eye(2)]))
    assert rep.theorem == "3.2"
    assert rep.verdict and rep.fixed_dim == rep.target_dim == 0


def test_verify_subnormalized_partial_unit_spectrum():
    rep = verify_subnormalized_fixed_points(build_effect_set([np.diag([1.0, 0.5])]))
    assert rep.verdict and rep.fixed_dim == rep.target_dim == 1


@pytest.mark.parametrize("uf", [0.0, 0.25, 0.5])
def test_verify_subnormalized_on_generated_sets(uf):
    es = generate_commuting_subnormalized(6, 3, seed=60, unit_fraction=uf)
    rep = verify_subnormalized_fixed_points(es)
    assert rep.verdict and rep.distance <= 1e-8
    if uf == 0.0:
        assert rep.fixed_dim == 0


def test_verify_subnormalized_rejects_wrong_inputs():
    with pytest.raises(IsResolution):
        verify_subnormalized_fixed_points(_pinching())
    # a non-commuting set is no wrong input: with F = 0.81·I nothing is fixed
    scaled = [0.9 * e for e in generate_noncommuting_resolution(3, 3, seed=2).matrices]
    rep = verify_subnormalized_fixed_points(build_effect_set(scaled))
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.2", 0, 0, True)


def test_channel_norm_certificate():
    es = generate_commuting_resolution(4, 3, seed=70)
    cert = channel_norm(LuedersOperation(es), probes=100, seed=1)
    assert abs(cert.value - 1.0) < 1e-10
    assert cert.identity_image_norm == cert.value
    assert cert.max_probe_image_norm <= cert.value + 1e-10

    scalar = channel_norm(LuedersOperation(build_effect_set([0.8 * np.eye(3)])), probes=20, seed=2)
    assert abs(scalar.value - 0.64) < 1e-12

    assert channel_norm(LuedersOperation(es), probes=0, seed=1).max_probe_image_norm == 0.0


@pytest.mark.parametrize("kwargs", [{"probes": -1}, {"seed": -1}], ids=["probes", "seed"])
def test_channel_norm_rejects_negative_arguments(kwargs):
    with pytest.raises(InvalidArgument):
        channel_norm(LuedersOperation(generate_commuting_resolution(3, 2, seed=71)), **kwargs)


def test_channel_norm_at_d64_n64():
    # Φ sums its (200, 64, 64) terms one at a time; a list of all 64 peaks near 0.9 GB.
    cert = channel_norm(LuedersOperation(generate_commuting_resolution(64, 64, seed=72)))
    assert cert.identity_image_norm == cert.value
    assert cert.max_probe_image_norm <= cert.value + 1e-10


def test_nagy_resolution_gives_half_identity():
    es = generate_commuting_resolution(5, 4, seed=80)
    sol = nagy_solve(LuedersOperation(es))
    assert sol.half_identity_distance <= 1e-10
    assert sol.residual <= 1e-10
    assert sol.is_effect


def test_nagy_dim_one_circle_pair():
    theta = 0.7
    es = build_effect_set([np.array([[np.cos(theta)]]), np.array([[np.sin(theta)]])])
    sol = nagy_solve(LuedersOperation(es))
    assert abs(sol.solution[0, 0] - 0.5) < 1e-12


def test_nagy_subnormalized_still_solves():
    es = generate_commuting_subnormalized(4, 2, seed=81, unit_fraction=0.25)
    op = LuedersOperation(es)
    sol = nagy_solve(op)
    assert np.linalg.norm(op.apply(sol.solution) + sol.solution - np.eye(4)) <= 1e-10


def test_undisturbed_state_examples():
    es = generate_commuting_resolution(4, 3, seed=90)
    op = LuedersOperation(es)
    assert is_undisturbed_state(op, np.eye(4) / 4) == (True, True)

    pin = LuedersOperation(_pinching())
    assert is_undisturbed_state(pin, np.diag([0.5, 0.5])) == (True, True)
    coherent = np.full((2, 2), 0.5, dtype=complex)
    assert is_undisturbed_state(pin, coherent) == (False, False)


def test_undisturbed_state_rejects_bad_states():
    op = LuedersOperation(_pinching())
    with pytest.raises(NotDensityMatrix):
        is_undisturbed_state(op, np.eye(2))  # trace 2
    with pytest.raises(NotDensityMatrix):
        is_undisturbed_state(op, np.diag([1.5, -0.5]))
    with pytest.raises(NotDensityMatrix):
        is_undisturbed_state(op, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_undisturbed_state_reads_its_tolerances():
    op = LuedersOperation(_pinching())
    rho = np.diag([0.5 + 5e-10, 0.5])
    assert is_undisturbed_state(op, rho) == (True, True)


def test_undisturbed_state_hermitian_check_is_relative():
    # ‖ρ - ρ†‖_F = 6e-11·√2 ≈ 8.5e-11 lies between HERMITIAN·‖ρ‖_F ≈ 7.1e-11 and
    # the absolute HERMITIAN = 1e-10: the effect rule rejects what a floor of 1 let through.
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 6e-11
    assert 1e-10 * np.linalg.norm(rho) < np.linalg.norm(rho - rho.conj().T) < 1e-10
    with pytest.raises(NotDensityMatrix, match="asymmetry"):
        is_undisturbed_state(LuedersOperation(_pinching()), rho)


@pytest.mark.parametrize("seed", range(25))
def test_undisturbed_iff_commuting_sweep(seed):
    es = generate_commuting_resolution(4, 2 + seed % 3, seed=95)
    op = LuedersOperation(es)
    rng = np.random.Generator(np.random.Philox(400 + seed))
    if seed % 2 == 0:
        u = np.hstack([b.basis for b in joint_eigenspaces(es)])
        w = rng.random(4)
        rho = (u * (w / w.sum())) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
    else:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.real(np.trace(rho))
    fixed, commutes = is_undisturbed_state(op, rho)
    assert fixed == commutes
