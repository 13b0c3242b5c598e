import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from lueders import matkernel as mk, operation
from lueders.effects import (
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from lueders.cli import main
from lueders.errors import DimensionMismatch, InvalidArgument, Undecided
from lueders.operation import (
    LuedersOperation,
    _certify,
    _commutant_frame,
    _target,
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
from lueders.serialize import dump_effect_set


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
    assert fixed_point_space(build_effect_set([np.eye(3)])).dim == 9


def test_fixed_space_of_pinching_is_diagonal():
    sub = fixed_point_space(_pinching())
    # vec(E₁₁) and vec(E₂₂) are the first and last unit vectors of C⁴
    diag = mk.OperatorSubspace(2, np.eye(4, dtype=complex)[:, [0, 3]])
    cmp = mk.subspaces_equal(sub, diag)
    assert cmp.equal and sub.dim == 2


def test_fixed_space_of_single_subnormalized_effect():
    es = build_effect_set([np.diag([1.0, 0.5])])
    sub = fixed_point_space(es)
    only = mk.OperatorSubspace(2, np.eye(4, dtype=complex)[:, [0]])
    assert sub.dim == 1
    assert mk.subspaces_equal(sub, only).equal


def test_fixed_space_members_are_fixed():
    es = generate_commuting_resolution(6, 3, seed=31)
    op = LuedersOperation(es)
    for c in fixed_point_space(es).vectors.T:
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
    es = generate()
    d = es.dim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fixed_point_space(es)
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


def test_commutant_of_a_scalar_set_holds_one_basis_array():
    # Every one of the d² unknowns is free, and the basis is written once into
    # its d²×d² output (16·d⁴ bytes), with no d²×d² work array beside it.
    d = 32
    es = build_effect_set([0.6 * np.eye(d), 0.8 * np.eye(d)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sub = commutant(es)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sub.dim == d * d
    assert peak <= 1.5 * 16 * d**4


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


@pytest.mark.parametrize(
    "tuples,orders,dims",
    [
        ([[0.1, 0.9], [0.5, 0.2], [0.5, 0.4], [0.5, 0.4]], [4], [1, 1, 2]),
        ([[0.5, 0.3, 0.2], [0.5, 0.3, 0.20001], [0.1, 0.2, 0.3]], [3, 2], [1, 1, 1]),
    ],
    ids=["all-free", "merged-pair"],
)
def test_joint_eigenspaces_take_no_eigh_of_a_free_block(tuples, orders, dims, monkeypatch):
    # The blocks are read off the frame: after the eigh of H, only a block that is not free gets an eigh.
    # In the first set every block of H is free; in the second H merges two tuples 1e-5 apart (relative
    # gap 3e-6), and that block of order 2 alone is split.
    es = build_effect_set([np.diag(t) for t in np.array(tuples).T])
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape[-1]) or eigh(a))
    blocks = joint_eigenspaces(es)
    assert seen == orders
    assert [b.dim for b in blocks] == dims
    for block in blocks:
        for e, lam in zip(es.matrices, block.values):
            assert np.abs(e @ block.basis - lam * block.basis).max() < 1e-12


def test_joint_eigenspaces_reject_noncommuting():
    with pytest.raises(InvalidArgument):
        joint_eigenspaces(generate_noncommuting_resolution(3, 3, seed=1))


def test_one_frame_per_set(tmp_path, capsys, monkeypatch):
    # verify, commutant and joint_eigenspaces of one set read one frame; analyze builds one for the set it loads.
    build, built = operation._commutant_frame, []
    monkeypatch.setattr(operation, "_commutant_frame", lambda es: built.append(es) or build(es))
    es = generate_commuting_resolution(6, 3, seed=9)
    rep = verify_resolution_fixed_points(es)
    blocks = joint_eigenspaces(es)
    assert commutant(es).dim == sum(b.dim**2 for b in blocks) == rep.target_dim
    assert built == [es]
    path = tmp_path / "set.json"
    dump_effect_set(path, es)
    assert main(["analyze", str(path)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert len(built) == 2 and body["commutant_dim"] == sum(k * k for k in body["joint_block_dims"]) == rep.target_dim


def test_joint_eigenspaces_of_a_set_the_frame_still_couples_are_undecided(tmp_path, capsys, monkeypatch):
    # The dusty scalar block at t = 3e-11 commutes to within COMMUTATOR, but its coupling lies above the
    # commutant cut: the frame keeps two blocks that are not free.  joint_eigenspaces raises Undecided
    # before any kernel is solved, and analyze exits 3 rather than report Σ dⱼ² = 148 beside a commutant of 125.
    v = np.concatenate([np.full(12, 0.6), [0.62, 0.64, 0.66, 0.68]])
    e1 = np.diag(v).astype(complex)
    e1[0, 15] = e1[15, 0] = 3e-11
    es = build_effect_set([e1, np.diag(np.sqrt(1.0 - v**2))])
    qr, factored = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: factored.append(1) or qr(*a, **k))
    with pytest.raises(Undecided):
        joint_eigenspaces(es)
    assert not factored
    assert es.commuting and commutant(es).dim == 125
    path = tmp_path / "set.json"
    dump_effect_set(path, es)
    assert main(["analyze", str(path)]) == 3
    assert "Undecided" in capsys.readouterr().err


@pytest.mark.parametrize("d,spread", [(16, 1e-3), (16, 1e-4), (16, 3e-5), (64, 1e-4)])
def test_joint_eigenspaces_of_a_near_scalar_commuting_set(d, spread, tmp_path, capsys, monkeypatch):
    # E₁ = q·(0.5·I + spread·diag(x))·q†, E₂ = √(I - E₁²): H merges neighbouring tuples, spread/d apart,
    # into blocks that are not free, and the split parts them into d free blocks.  With E₂ scaled by 0.9
    # the set is strictly subnormalized, so verify decides and analyze prints both dimensions.
    rng = np.random.default_rng(0)
    a = 0.5 + spread * rng.random(d)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    e1, e2 = (q @ np.diag(x) @ q.conj().T for x in (a, np.sqrt(1.0 - a**2)))
    es = build_effect_set([e1, e2])
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape[-1]) or eigh(a))
    blocks = joint_eigenspaces(es)
    assert seen[0] == d and len(seen) > 1  # the eigh of H, then the split's of each merged block
    assert [b.dim for b in blocks] == [1] * d
    for block in blocks:
        for e, lam in zip(es.matrices, block.values):
            assert np.abs(e @ block.basis - lam * block.basis).max() < 1e-12
    path = tmp_path / "set.json"
    dump_effect_set(path, build_effect_set([e1, 0.9 * e2]))
    assert main(["analyze", str(path)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["joint_block_dims"] == [1] * d and body["commutant_dim"] == d


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
    with pytest.raises(InvalidArgument):
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
        # Residuals ε ≤ CLUSTER: the third eigenvalue 1 - ε of Φ lies within 3ε of 1.
        (1e-10, Normalization.RESOLUTION, ("3.1", 3, 3, True)),
        (5e-10, Normalization.RESOLUTION, ("3.1", 3, 3, True)),
    ],
)
def test_unit_deficit_decides_the_theorem_by_the_unit_eigenspace_cut(eps, normalization, report):
    es = _unit_deficit_pair(eps)
    assert es.normalization is normalization
    if normalization is Normalization.RESOLUTION:
        rep = verify_resolution_fixed_points(es)
    else:
        with pytest.raises(InvalidArgument):
            verify_resolution_fixed_points(es)
        rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == report


@pytest.mark.parametrize(
    "mats,dim",
    [
        ([np.eye(2)], 4),
        ([np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])], 8),
        ([np.diag(np.cos([0.1, 0.5, 0.9, 1.3])), np.diag(np.sin([0.1, 0.5, 0.9, 1.3]))], 4),
    ],
    ids=["scalar-d2", "pinching-d4", "tuples-d4"],
)
def test_resolution_with_every_unit_deficit_just_inside_cluster(mats, dim):
    # Every eigenvalue of F is 1 - 0.9e-9, so the set is a resolution, and each
    # unit commutant element X has ‖Φ(X) - X‖_F = 0.9e-9.  The residual of the
    # whole basis is √k times that, beyond CLUSTER; the verdict cuts per element.
    es = build_effect_set([np.sqrt(1.0 - 0.9e-9) * m for m in mats])
    assert es.normalization is Normalization.RESOLUTION
    rep = verify_resolution_fixed_points(es)
    assert (rep.fixed_dim, rep.target_dim, rep.verdict) == (dim, dim, True)
    assert abs(rep.distance - np.sqrt(dim) * 0.9e-9) <= 1e-3 * rep.distance


@pytest.mark.parametrize("eps", [2e-9, 1e-8, 1e-7, 1e-6])
def test_rotated_unit_deficit_keeps_the_two_dimensional_target(eps):
    # An eigh of F resolves its unit eigenvectors only to about ε_mach/ε, so a
    # target cut with a projector built from them loses both dimensions up to
    # ε = 1e-6.  The singular values of X ↦ (I - F)X on the commutant are 0, 0 and ε.
    # The eigenvectors of Φ are off by up to 1.7e-7 here, its eigenvalues are not.
    es = _unit_deficit_pair(eps, _seeded_unitary())
    assert es.commuting and es.normalization is Normalization.SUBNORMALIZED
    rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim) == ("3.2", 2, 2)
    assert rep.verdict and rep.distance <= 1e-8


def test_verify_subnormalized_scalar_effect_has_trivial_fixed_space():
    rep = verify_subnormalized_fixed_points(build_effect_set([0.8 * np.eye(2)]))
    assert rep.theorem == "3.2"
    assert rep.verdict and rep.fixed_dim == rep.target_dim == 0


def test_verify_subnormalized_without_unit_eigenvalue_takes_no_svd(monkeypatch):
    # F = 0.61·I: ‖(I - F)X‖_F ≥ 0.39 > CLUSTER for every unit X, so the target is {0} without an SVD.
    es = build_effect_set([0.5 * np.eye(8), 0.6 * np.eye(8)])

    def no_svd(*args, **kwargs):
        raise AssertionError("the empty target took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.2", 0, 0, True)


def test_verify_subnormalized_without_unit_eigenvalue_builds_no_commutant(monkeypatch):
    # The target is {0} whatever the commutant, so verify must not build its d²×dim basis.
    es = build_effect_set([0.5 * np.eye(8), 0.6 * np.eye(8)])

    def no_commutant(*args, **kwargs):
        raise AssertionError("the empty target built the commutant")

    monkeypatch.setattr("lueders.operation.commutant", no_commutant)
    monkeypatch.setattr("lueders.operation._commutant_frame", no_commutant)
    rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.2", 0, 0, True)


def test_verify_subnormalized_without_unit_eigenvalue_builds_no_matrix(monkeypatch):
    # ‖Φ‖ ≤ ‖F‖ = 0.61 < 1 - τ - r proves fixed_dim = 0: no R̃ of order d² = 4096 is built or factored.
    es = build_effect_set([0.5 * np.eye(64), 0.6 * np.eye(64)])

    def no_matrix(*args, **kwargs):
        raise AssertionError("the empty target built a matrix of Φ")

    monkeypatch.setattr(operation, "_hermitian_coordinates", no_matrix)
    rep = verify_subnormalized_fixed_points(es)
    assert asdict(rep) == {"theorem": "3.2", "fixed_dim": 0, "target_dim": 0, "distance": 0.0, "verdict": True}


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
    with pytest.raises(InvalidArgument):
        verify_subnormalized_fixed_points(_pinching())
    # a non-commuting set is no wrong input: with F = 0.81·I nothing is fixed
    scaled = [0.9 * e for e in generate_noncommuting_resolution(3, 3, seed=2).matrices]
    rep = verify_subnormalized_fixed_points(build_effect_set(scaled))
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.2", 0, 0, True)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: generate_commuting_resolution(24, 8, seed=24),
        lambda: generate_commuting_subnormalized(24, 8, seed=24, unit_fraction=0.5),
        lambda: generate_noncommuting_resolution(24, 8, seed=24),
    ],
    ids=["cr", "cs", "nc"],
)
def test_verify_peak_memory_at_d24(generate):
    # The certificate factors its one real d²×d² matrix (8·d⁴ bytes) in place, so
    # only block-sized work arrays are alive beside it.
    es = generate()
    d = es.dim
    resolution = es.normalization is Normalization.RESOLUTION
    verify = verify_resolution_fixed_points if resolution else verify_subnormalized_fixed_points
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify(es)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verdict
    assert peak < 1.5 * 8 * d**4


def _placed(frame, c, on):
    """V: the solved coordinates c written among all d² coordinates, then those off the mask on kept."""
    v = np.zeros((on.size, c.shape[1]))
    v[frame.on(~frame.free).ravel()] = c
    return v[~on.ravel()]


def test_certificate_refuses_a_short_target():
    # A target without one of its columns leaves an eigenvalue of Φ at 1 in M, which is then
    # not positive definite: one matrix unit dropped from a commuting d = 16 target, the one
    # solved column of a non-commuting one, or the empty target of a resolution.
    tau = 64 * 16 * 16 * np.finfo(float).eps
    es = generate_commuting_resolution(16, 3, seed=16)
    frame = _commutant_frame(es)
    on = frame.on(frame.free)
    p = np.flatnonzero(frame.free[frame.label])[0]
    short = on.copy()
    short[p, p] = False
    assert _certify(frame.ets, on, _placed(frame, frame.y, on), tau)
    assert not _certify(frame.ets, short, _placed(frame, frame.y, short), tau)
    assert not _certify(es.matrices, np.zeros((16, 16), dtype=bool), np.zeros((256, 0)), tau)
    es = generate_noncommuting_resolution(16, 3, seed=16)
    frame = _commutant_frame(es)
    assert not frame.free.any() and frame.y.shape[1] == 1
    on = frame.on(frame.free)
    v = _placed(frame, frame.y, on)
    assert _certify(frame.ets, on, v, tau)
    assert not _certify(frame.ets, on, v[:, :0], tau)


def _noncommuting_subnormalized(d):
    # a non-commuting resolution ⊗ I₂ beside 0.8× another, in a random basis: a "3.2" target of 4 solved columns
    a, b = generate_noncommuting_resolution(d, 3, seed=d), generate_noncommuting_resolution(d, 3, seed=d + 1)
    u, _ = np.linalg.qr(_rand(3 * d, d))
    mats = [u @ np.block([[np.kron(x, np.eye(2)), np.zeros((2 * d, d))], [np.zeros((d, 2 * d)), 0.8 * y]]) @ u.conj().T
            for x, y in zip(a.matrices, b.matrices)]
    return build_effect_set([(m + m.conj().T) / 2 for m in mats])


def _real_resolution(d, seed):
    # Eᵢ = Aᵢ^½ for the real POVM Aᵢ = G^-½·Bᵢ·G^-½, Bᵢ random real PSD and G = Σ Bᵢ
    rng = np.random.Generator(np.random.Philox(seed))
    bs = [g @ g.T for g in rng.standard_normal((3, d, d))]
    w, v = np.linalg.eigh(sum(bs))
    root = (v / np.sqrt(w)) @ v.T
    effects = []
    for b in bs:
        w, v = np.linalg.eigh(root @ b @ root)
        effects.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
    return effects


def _real_subnormalized(d):
    # Real resolutions ⊗ I₂ beside 0.8× another.  H is real, and in a real frame the commutant
    # direction I ⊗ iσ_y on the 0.8 block has a purely imaginary deficit (I - F̃)X, seen only by Im D.
    z = np.zeros((2 * d, 2 * d))
    mats = [np.block([[np.kron(x, np.eye(2)), z], [z, 0.8 * np.kron(y, np.eye(2))]])
            for x, y in zip(_real_resolution(d, d), _real_resolution(d, d + 1))]
    return build_effect_set([(m + m.T) / 2 for m in mats])


@pytest.mark.parametrize(
    "es,k",
    [
        (generate_noncommuting_resolution(16, 3, seed=16), 1),
        (build_effect_set([np.kron(e, np.eye(2)) for e in generate_noncommuting_resolution(8, 3, seed=8).matrices]), 4),
        (_noncommuting_subnormalized(4), 4),
        (_real_subnormalized(4), 4),
    ],
    ids=["nc", "nc-x-i2", "nc-sub", "real-sub"],
)
def test_certificate_reads_the_target_coordinates(es, k, monkeypatch):
    # `_target` holds the target once: the mask on of kept free coordinates (none here) and the
    # solved columns v, the real coordinates Y of Hermitian X placed off the mask, orthonormal, and
    # equal to the coordinates Re X + Im X of the target's own basis matrices there.  The residual
    # and the certificate both read that one pair.
    frame = _commutant_frame(es)
    on, v = _target(es, frame)
    x = operation._hermitian(~on, v)
    assert not on.any() and v.shape == (es.dim**2, k) and np.isrealobj(v)
    assert np.abs(x - x.conj().transpose(0, 2, 1)).max() == 0.0
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-13
    assert np.abs((x.real + x.imag).reshape(k, -1)[:, ~on.ravel()].T - v).max() <= 1e-15
    seen = []
    for name in ("_residual", "_certify"):
        monkeypatch.setattr(operation, name, lambda *args, f=getattr(operation, name): seen.append(args) or f(*args))
    rep = operation._verify_fixed_points(es)
    assert (rep.fixed_dim, rep.target_dim, rep.verdict) == (k, k, True)
    [(ets, *pair), (_, *certified, _)] = seen
    assert np.array_equal(ets, frame.ets)
    for got in (pair, certified):
        assert np.array_equal(got[0], on) and np.array_equal(got[1], v)
    assert _certify(*seen[1])


def test_channel_norm_certificate():
    es = generate_commuting_resolution(4, 3, seed=70)
    cert = channel_norm(es, probes=100, seed=1)
    assert abs(cert.value - 1.0) < 1e-10
    assert cert.identity_image_norm == cert.value
    assert cert.max_probe_image_norm <= cert.value + 1e-10

    scalar = channel_norm(build_effect_set([0.8 * np.eye(3)]), probes=20, seed=2)
    assert abs(scalar.value - 0.64) < 1e-12

    assert channel_norm(es, probes=0, seed=1).max_probe_image_norm == 0.0


@pytest.mark.parametrize("kwargs", [{"probes": -1}, {"seed": -1}], ids=["probes", "seed"])
def test_channel_norm_rejects_negative_arguments(kwargs):
    with pytest.raises(InvalidArgument):
        channel_norm(generate_commuting_resolution(3, 2, seed=71), **kwargs)


def test_channel_norm_at_d64_n64():
    # Φ sums its (200, 64, 64) terms one at a time; a list of all 64 peaks near 0.9 GB.
    cert = channel_norm(generate_commuting_resolution(64, 64, seed=72))
    assert cert.identity_image_norm == cert.value
    assert cert.max_probe_image_norm <= cert.value + 1e-10


def test_nagy_resolution_gives_half_identity():
    es = generate_commuting_resolution(5, 4, seed=80)
    sol = nagy_solve(es)
    assert sol.half_identity_distance <= 1e-10
    assert sol.residual <= 1e-10
    assert sol.is_effect


def test_nagy_dim_one_circle_pair():
    theta = 0.7
    es = build_effect_set([np.array([[np.cos(theta)]]), np.array([[np.sin(theta)]])])
    sol = nagy_solve(es)
    assert abs(sol.solution[0, 0] - 0.5) < 1e-12


def test_nagy_subnormalized_still_solves():
    es = generate_commuting_subnormalized(4, 2, seed=81, unit_fraction=0.25)
    sol = nagy_solve(es)
    assert np.linalg.norm(LuedersOperation(es).apply(sol.solution) + sol.solution - np.eye(4)) <= 1e-10


def test_undisturbed_state_examples():
    es = generate_commuting_resolution(4, 3, seed=90)
    assert is_undisturbed_state(es, np.eye(4) / 4) == (True, True)

    pin = _pinching()
    assert is_undisturbed_state(pin, np.diag([0.5, 0.5])) == (True, True)
    coherent = np.full((2, 2), 0.5, dtype=complex)
    assert is_undisturbed_state(pin, coherent) == (False, False)


def test_undisturbed_state_rejects_bad_states():
    pin = _pinching()
    with pytest.raises(InvalidArgument):
        is_undisturbed_state(pin, np.eye(2))  # trace 2
    with pytest.raises(InvalidArgument):
        is_undisturbed_state(pin, np.diag([1.5, -0.5]))
    with pytest.raises(InvalidArgument):
        is_undisturbed_state(pin, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_undisturbed_state_reads_its_tolerances():
    rho = np.diag([0.5 + 5e-10, 0.5])
    assert is_undisturbed_state(_pinching(), rho) == (True, True)


@pytest.mark.parametrize(("share", "commutes"), [(1.01, False), (0.99, True)])
def test_undisturbed_state_commutes_is_decided_by_the_last_effect(share, commutes):
    # ρ commutes exactly with the first two effects; ‖[ρ, E₃]‖ = 0.4·t lies just off COMMUTATOR = 1e-9.
    t = share * 1e-9 / 0.4
    es = build_effect_set([0.5 * np.eye(2), np.diag([0.6, 0.2]), 0.3 * np.eye(2) + t * np.array([[0.0, 1.0], [1.0, 0.0]])])
    rho = np.diag([0.7, 0.3])
    assert [mk.operator_norm(rho @ e - e @ rho) > 0 for e in es.matrices] == [False, False, True]
    assert is_undisturbed_state(es, rho)[1] is commutes


def test_undisturbed_state_hermitian_check_is_relative():
    # ‖ρ - ρ†‖_F = 6e-11·√2 ≈ 8.5e-11 lies between HERMITIAN·‖ρ‖_F ≈ 7.1e-11 and
    # the absolute HERMITIAN = 1e-10: the effect rule rejects what a floor of 1 let through.
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 6e-11
    assert 1e-10 * np.linalg.norm(rho) < np.linalg.norm(rho - rho.conj().T) < 1e-10
    with pytest.raises(InvalidArgument, match="asymmetry"):
        is_undisturbed_state(_pinching(), rho)


@pytest.mark.parametrize("seed", range(25))
def test_undisturbed_iff_commuting_sweep(seed):
    es = generate_commuting_resolution(4, 2 + seed % 3, seed=95)
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
    fixed, commutes = is_undisturbed_state(es, rho)
    assert fixed == commutes
