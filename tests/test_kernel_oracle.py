"""The factorized kernels against a dense full-SVD / lstsq reference.

`nullspace` takes one SVD, `fixed_point_space` one
real symmetric ``eigh`` of Φ in an orthonormal basis of the Hermitian
matrices (Φ(X)† = Φ(X†) for Hermitian effects, so that real d²×d² matrix has
the eigenvalues of the complex superoperator S = Σ Eᵢᵀ⊗Eᵢ, and Fix(Φ) is the
complex span of its Hermitian fixed points), `commutant` a QR + SVD
restricted to the eigenblocks of one random element H = Σ cᵢEᵢ, `nagy_solve`
conjugate gradients on Φ applied to d×d matrices, `subspaces_equal` two
residuals of d²×k column bases, `orthonormalize` one thin SVD and
`channel_norm` one batched draw and Φ over all its probes, then an SVD only of
the images whose Schatten-8 upper bound reaches the largest Rayleigh lower
bound.  The references below are the direct routes they replaced: a full SVD
of the unreduced matrix for every kernel (for the fixed points, of the complex
S - I; for the commutant, of the dense (n·d²)×d² commutator stack),
``lstsq`` on the dense superoperator for the Φ(X) + X = I system, the d²×d²
projectors VV† for subspace distances, modified Gram-Schmidt for orthonormal
bases, and a per-probe loop and the SVD of every probe image for the channel
norm.  They live here, not in the package (which keeps only
`LuedersOperation.superoperator` to build S), so they stay independent
oracles.  The fixed-point target of a non-commuting
subnormalized set is checked against one stacked kernel built from the
projector P onto the unit eigenspace of F = Σ Eᵢ², which the package never
forms (it cuts (I - F)X = 0 on the commutant).

The verifiers read only eigenvalues: one ``eigvalsh`` of that real matrix
and the residual ‖Φ(Q) - Q‖_F of the target basis Q.  Their verdicts and
dimensions are checked against the eigenvector route they replaced
(`fixed_point_space` compared with the target by `subspaces_equal`) and the
dense S, and their eigenvalue margin against the exact spectrum of commuting
resolutions, ⟨λ(a), λ(b)⟩ over pairs of joint eigenvalue tuples.  `lueders
analyze` must report the verifier's fixed_dim, or exit 3 with Undecided
wherever `lueders verify` does.
"""

import json
import tracemalloc

import numpy as np
import pytest

from lueders import matkernel as mk, operation, tolerances as tol
from lueders.cli import main
from lueders.effects import (
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
    validate_effect,
)
from lueders.errors import Undecided
from lueders.operation import (
    ChannelNormCertificate,
    LuedersOperation,
    _commutant_frame,
    _hermitian_coordinates,
    _phi,
    _residual,
    channel_norm,
    commutant,
    fixed_point_space,
    joint_eigenspaces,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from lueders.rng import philox_generator
from lueders.serialize import dump_effect_set
from lueders.suite import FULL, QUICK, _noncommuting_pool, _resolution_pool, _subnormalized_pool, run_criterion

PROJECTOR_TOL = 1e-10


def _reference_nullspace(a, tol=1e-10):
    """Kernel from one full SVD of the unreduced matrix, with the package's cut."""
    a = np.asarray(a, dtype=complex)
    cols = a.shape[1]
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= tol:
        return np.eye(cols, dtype=complex)
    _, _, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > tol * s[0]))
    return vh[rank:].conj().T


def _reference_orthonormalize(mats, drop_tol=1e-10):
    """Modified Gram-Schmidt with a second pass; residuals below drop_tol are dropped."""
    basis = []
    for m in mats:
        v = np.array(m, dtype=complex)
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm < drop_tol:
            continue
        basis.append(v / nrm)
    return basis


def unit_projector(es):
    """Projector P onto the eigenvectors of the Hermitized F = Σ Eᵢ² whose eigenvalue lies within 1e-9 of 1."""
    f = es.sum_of_squares
    w, u = np.linalg.eigh((f + f.conj().T) / 2)
    u = u[:, np.abs(w - 1.0) <= 1e-9]
    return u @ u.conj().T


def subspace_projector(v):
    """Orthogonal projector VV† onto the span of the orthonormal columns of V, as a d²×d² matrix."""
    return v @ v.conj().T


def _projector_distance(v1, v2):
    return float(np.linalg.norm(subspace_projector(v1) - subspace_projector(v2)))


def _commutator_blocks(es):
    """Cᵢ = Eᵢᵀ⊗I - I⊗Eᵢ, the matrix of B ↦ BEᵢ - EᵢB on column-stacked vec(B)."""
    eye = np.eye(es.dim)
    return [np.kron(e.T, eye) - np.kron(eye, e) for e in es.matrices]


def _dense_commutant(es):
    """Kernel of the dense (n·d²)×d² stack of the Cᵢ, by one full SVD."""
    return _reference_nullspace(np.vstack(_commutator_blocks(es)))


def _assert_same_kernel(got, want, distance=PROJECTOR_TOL):
    assert got.shape == want.shape
    assert np.linalg.norm(got.conj().T @ got - np.eye(got.shape[1])) < 1e-12
    assert _projector_distance(got, want) <= distance


def _rand(rows, cols, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _unitary(d, seed):
    q, _ = np.linalg.qr(_rand(d, d, seed))
    return q


def _effect_sets():
    for d in (1, 2, 4, 6, 8):
        for n in (1, 2, 3, 5):
            seed = 10 * d + n
            yield f"cr-d{d}-n{n}", generate_commuting_resolution(d, n, seed)
            yield f"cs-d{d}-n{n}", generate_commuting_subnormalized(d, n, seed, 0.5)
            if d >= 2 and n >= 3:
                yield f"nc-d{d}-n{n}", generate_noncommuting_resolution(d, n, seed)


EFFECT_SETS = dict(_effect_sets())


@pytest.mark.parametrize(
    "rows,cols,rank,real",
    [
        pytest.param(*shape, real, id="-".join(map(str, shape)) + ("-real" if real else ""))
        for real in (False, True)
        for shape in [(12, 5, 5), (12, 5, 3), (40, 9, 4), (5, 12, 5), (5, 12, 2), (7, 7, 7), (7, 7, 6), (1, 6, 1), (6, 1, 1)]
    ],
)
def test_nullspace_matches_reference(rows, cols, rank, real):
    left, right = _rand(rows, rank, rows * cols + rank), _rand(rank, cols, rows + cols + rank)
    a = left.real @ right.real if real else left @ right
    got = mk.nullspace(a)
    _assert_same_kernel(got, _reference_nullspace(a))
    assert got.shape[1] == cols - rank
    # a real matrix keeps a real basis, which spans the kernel of the complex route
    assert np.isrealobj(got) == real
    _assert_same_kernel(got, mk.nullspace(a.astype(complex)))


@pytest.mark.parametrize("rows,cols", [(4, 4), (9, 3), (3, 9)])
def test_nullspace_zero_and_dust_match_reference(rows, cols):
    for a in (np.zeros((rows, cols)), 1e-15 * _rand(rows, cols, rows + cols)):
        got = mk.nullspace(a)
        assert np.array_equal(got, np.eye(cols))
        assert np.array_equal(got, _reference_nullspace(a))


@pytest.mark.parametrize("name", sorted(EFFECT_SETS))
def test_fixed_point_space_matches_reference(name):
    es = EFFECT_SETS[name]
    d = es.dim
    want = _reference_nullspace(LuedersOperation(es).superoperator - np.eye(d * d))
    _assert_same_kernel(fixed_point_space(es).vectors, want)


def _assert_fixed_points_match_superoperator(es):
    """`fixed_point_space` against the kernel of S - I, by one full SVD.

    The validated effects are exactly Hermitian, so S must be too, bit for
    bit.  Rounding of size ε moves a kept eigenspace by about ε/gap (Davis &
    Kahan), gap the smallest singular value beyond the cut, so no two routes
    can agree closer than that; with a clear gap they agree to 1e-12.  The
    returned basis matrices must be Hermitian.
    """
    d = es.dim
    s = LuedersOperation(es).superoperator
    assert np.array_equal(s, s.conj().T)
    h = s - np.eye(d * d)
    want = _reference_nullspace(h)
    got = fixed_point_space(es).vectors
    assert got.shape == want.shape
    assert np.abs(got.conj().T @ got - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
    for c in got.T:
        x = mk.unvec(c, d)
        assert np.abs(x - x.conj().T).max() <= 1e-14
    k = want.shape[1]
    gap = np.linalg.svd(h, compute_uv=False)[-k - 1] if k < d * d else np.inf
    assert _projector_distance(got, want) <= max(1e-12, 16 * np.finfo(float).eps / gap)


def _unit_deficit_set(eps, q=np.eye(3)):
    """E₁ = q·diag(0.6, 1, 0.28r)·q†, E₂ = q·diag(0.8, 0, 0.96r)·q†, r = √(1 - ε): F = q·diag(1, 1, 1 - ε)·q†."""
    r = np.sqrt(1.0 - eps)
    mats = [(q * t) @ q.conj().T for t in ([0.6, 1.0, 0.28 * r], [0.8, 0.0, 0.96 * r])]
    return build_effect_set([(m + m.conj().T) / 2 for m in mats])


def _rotation():
    """The seeded unitary of the rotated unit-deficit family."""
    g = philox_generator(3).standard_normal((2, 3, 3))
    return np.linalg.qr(g[0] + 1j * g[1])[0]


def _with_non_hermitian_part(es, seed, share=0.99):
    """The matrices plus anti-Hermitian Nᵢ with ‖Eᵢ' - Eᵢ'†‖_F = share·HERMITIAN·‖Eᵢ‖_F, just under the check."""
    mats = []
    for i, e in enumerate(es.matrices):
        g = _rand(es.dim, es.dim, seed + i)
        n = (g - g.conj().T) / 2
        mats.append(e + n * (share * 1e-10 * np.linalg.norm(e) / (2 * np.linalg.norm(n))))
    assert all(mk.hermitian_defect(m) > 0.9e-10 * np.linalg.norm(m) for m in mats)
    return mats


UNIT_DEFICIT_EPS = (0.0, 1e-12, 5e-11, 2e-9, 5e-9, 9e-9, 1e-8, 1e-7, 1e-6)
NON_HERMITIAN_SETS = ("cr-d4-n2", "cs-d6-n3", "nc-d4-n3", "nc-d8-n5")


@pytest.mark.parametrize("k", range(6, 19))
def test_fixed_points_of_near_commuting_sets_match_superoperator(k):
    # The δ-sweep δ = 1e-3 … 1e-9.
    _assert_fixed_points_match_superoperator(build_effect_set(_near_commuting(10.0 ** (-k / 2), seed=k)))


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("eps", UNIT_DEFICIT_EPS)
def test_fixed_points_of_unit_deficit_families_match_superoperator(eps, rotated):
    _assert_fixed_points_match_superoperator(_unit_deficit_set(eps, _rotation() if rotated else np.eye(3)))


@pytest.mark.parametrize("name", NON_HERMITIAN_SETS)
def test_fixed_points_of_nearly_hermitian_effects_match_superoperator(name):
    # Validation stores every matrix exactly Hermitian with its own eigensystem, bit for bit,
    # and the fixed points are those of S built from the stored matrices.
    mats = _with_non_hermitian_part(EFFECT_SETS[name], seed=len(name))
    for e in map(validate_effect, mats):
        assert np.array_equal(e.matrix, e.matrix.conj().T)
        w, u = np.linalg.eigh(e.matrix)
        assert np.array_equal(np.clip(w, 0.0, 1.0), e.eigenvalues) and np.array_equal(u, e.eigenvectors)
    _assert_fixed_points_match_superoperator(build_effect_set(mats))


@pytest.mark.parametrize("name", NON_HERMITIAN_SETS + ("cr-d8-n3", "cs-d8-n5", "nc-d6-n5"))
def test_dust_keeps_the_commutant_and_verdict_of_the_clean_set(name):
    # The stored Hermitian part cancels anti-Hermitian dust.  A mirrored lower triangle would
    # turn it into a Hermitian change of its own size, at the commutant's cut.
    clean = EFFECT_SETS[name]
    es = build_effect_set(_with_non_hermitian_part(clean, seed=len(name)))
    resolution = es.normalization is Normalization.RESOLUTION
    verify = verify_resolution_fixed_points if resolution else verify_subnormalized_fixed_points
    assert es.normalization is clean.normalization and es.commuting == clean.commuting
    assert commutant(es).dim == commutant(clean).dim == _dense_commutant(es).shape[1]
    got, want = verify(es), verify(clean)
    assert (got.verdict, got.fixed_dim, got.target_dim) == (want.verdict, want.fixed_dim, want.target_dim)


@pytest.mark.parametrize(
    "mats,dim",
    [
        ([np.eye(1)], 1),
        ([0.6 * np.eye(1), 0.8 * np.eye(1)], 1),
        ([0.5 * np.eye(1)], 0),
        ([np.eye(3)], 9),
        ([np.zeros((1, 1))], 0),
        ([np.zeros((3, 3))], 0),
    ],
    ids=["d1-identity", "d1-resolution", "d1-subnormalized", "identity", "d1-zero", "zero"],
)
def test_fixed_points_of_edge_cases_match_superoperator(mats, dim):
    # E = I fixes all of B(H); the zero effect fixes nothing.
    es = build_effect_set(mats)
    assert fixed_point_space(es).dim == dim
    _assert_fixed_points_match_superoperator(es)


def _subnormalized_sets():
    for d in (2, 3, 5, 8):
        for n in (1, 2, 3):
            for uf in (0.0, 0.25, 0.5, 1.0):
                seed = 100 * d + 10 * n + int(4 * uf)
                yield f"d{d}-n{n}-uf{uf}", generate_commuting_subnormalized(d, n, seed, uf)


SUBNORMALIZED_SETS = dict(_subnormalized_sets())
NAGY_SETS = {**EFFECT_SETS, **SUBNORMALIZED_SETS}


@pytest.mark.parametrize("name", sorted(NAGY_SETS))
def test_nagy_solve_matches_reference(name):
    es = NAGY_SETS[name]
    d = es.dim
    s = LuedersOperation(es).superoperator
    x_vec, *_ = np.linalg.lstsq(s + np.eye(d * d), mk.vec(np.eye(d)), rcond=None)
    sol = nagy_solve(es)
    assert np.linalg.norm(sol.solution - mk.unvec(x_vec, d)) <= 1e-12
    assert sol.residual <= 1e-12


def test_nagy_solve_at_the_generator_cap():
    # d = 64, n = 64: the superoperator alone would be 268 MB.  X commutes with
    # the commuting effects, so Φ(X) = XF and X = (I + F)⁻¹.
    es = generate_commuting_subnormalized(64, 64, 11, 0.5)
    sol = nagy_solve(es)
    assert np.linalg.norm(sol.solution - np.linalg.inv(np.eye(64) + es.sum_of_squares)) <= 1e-12
    assert sol.residual <= 1e-12
    assert sol.is_effect


def test_nagy_solve_of_the_zero_effect():
    # Φ = 0: the first step lands on X = I with a residual of exactly 0.
    sol = nagy_solve(build_effect_set([np.zeros((3, 3))]))
    assert np.array_equal(sol.solution, np.eye(3))
    assert sol.residual == 0.0


def test_subspace_projector_and_trace():
    d = 3
    # the matrix units, column j = vec(E_{j mod d, j div d})
    full = mk.OperatorSubspace(d, np.eye(d * d, dtype=complex))
    proj = subspace_projector(full.vectors)
    assert np.abs(proj - np.eye(d * d)).max() < 1e-12


@pytest.mark.parametrize("d", [1, 3])
def test_empty_subspace_projector_is_exact_zero(d):
    empty = mk.OperatorSubspace(d, np.zeros((d * d, 0)))
    proj = subspace_projector(empty.vectors)
    assert empty.dim == 0 and proj.shape == (d * d, d * d)
    assert not proj.any()


def test_subspace_projector_is_idempotent():
    rng = np.random.Generator(np.random.Philox(11))
    cols, _ = np.linalg.qr(rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4)))
    sub = mk.OperatorSubspace(3, cols)
    p = subspace_projector(sub.vectors)
    assert np.abs(p @ p - p).max() < 1e-12
    assert abs(np.trace(p).real - sub.dim) < 1e-8


@pytest.mark.parametrize(
    "first,second,shared",
    [((0, 0), (0, 0), 0), ((0, 0), (0, 3), 0), ((0, 4), (0, 0), 0), ((0, 2), (0, 5), 2), ((0, 6), (3, 5), 2),
     ((0, 4), (4, 9), 0), ((1, 8), (0, 9), 7), ((0, 1), (0, 1), 1), ((2, 6), (2, 6), 4), ((0, 9), (0, 9), 9)],
)
def test_subspaces_equal_matches_projector_oracle(first, second, shared):
    # Column slices of one unitary on C⁹ (d = 3), the second in a rotated
    # basis: the exact distance is the square root of the number of columns
    # the two slices do not share, so equal slices give 0.
    q = _unitary(9, 23)
    s1 = mk.OperatorSubspace(3, q[:, slice(*first)])
    v2 = q[:, slice(*second)]
    s2 = mk.OperatorSubspace(3, v2 @ _unitary(v2.shape[1], 29))
    cmp = mk.subspaces_equal(s1, s2)
    exact = np.sqrt(s1.dim + s2.dim - 2 * shared)
    assert cmp.distance >= 0.0 and abs(cmp.distance - exact) <= 1e-14
    assert abs(cmp.distance - _projector_distance(s1.vectors, s2.vectors)) <= 1e-14
    assert cmp.equal is (shared == s1.dim == s2.dim)


def _verifier_target(es):
    """The verifiers' target: the commutant, cut to its (I - F)X = 0 directions for a subnormalized set."""
    target = commutant(es)
    if es.normalization is Normalization.RESOLUTION:
        return target
    d = es.dim
    deficit = np.column_stack([mk.vec((np.eye(d) - es.sum_of_squares) @ mk.unvec(c, d)) for c in target.vectors.T])
    _, s, vh = np.linalg.svd(deficit, full_matrices=False)
    return mk.OperatorSubspace(d, target.vectors @ vh[s <= 1e-9].conj().T)


def _quick_pools():
    """The sets of the QUICK C1–C3 criteria with the verifier each one goes to."""
    for es in _resolution_pool(QUICK) + _noncommuting_pool(QUICK):
        yield es, verify_resolution_fixed_points
    for _, es in _subnormalized_pool(QUICK):
        yield es, verify_subnormalized_fixed_points


def test_subspaces_equal_matches_projector_oracle_on_verifier_pairs():
    # The (Fix, target) pairs of the eigenvector route, built here for the QUICK C1–C3 pools.
    pairs = []
    for es, verify in _quick_pools():
        assert verify(es).verdict
        pairs.append((fixed_point_space(es), _verifier_target(es)))
    assert len(pairs) == 51
    for s1, s2 in pairs:
        got = mk.subspaces_equal(s1, s2).distance
        assert got >= 0.0 and abs(got - _projector_distance(s1.vectors, s2.vectors)) <= 2e-15


@pytest.mark.parametrize("name", sorted(SUBNORMALIZED_SETS))
def test_orthonormalize_matches_gram_schmidt(name):
    # The compressed commutant P·{Eᵢ}′ of commuting subnormalized sets.
    es = SUBNORMALIZED_SETS[name]
    d = es.dim
    p = unit_projector(es)
    mats = [p @ mk.unvec(c, d) for c in commutant(es).vectors.T]
    got, want = (
        np.array([mk.vec(b) for b in basis]).reshape(-1, d * d).T
        for basis in (mk.orthonormalize(mats), _reference_orthonormalize(mats))
    )
    _assert_same_kernel(got, want)


def test_orthonormalize_of_nothing_and_of_zeros():
    assert mk.orthonormalize([]) == []
    assert mk.orthonormalize([np.zeros((3, 3)), 1e-12 * np.eye(3)]) == []


def _d2_unit_projector_not_commuting():
    """E₁, E₂ on C² with F = diag(1, 0.619…): P = diag(1, 0) and ‖[P, E₁]‖ = 0.3."""
    y = -np.sqrt(0.02)
    return build_effect_set([np.array([[0.5, 0.3], [0.3, 0.2]]), np.array([[0.8, y], [y, -0.21 / y - 0.8]])])


def _noncommuting_subnormalized_sets():
    """(name, set, fixed-point dimension) of strictly subnormalized sets that do not commute."""
    a = generate_noncommuting_resolution(3, 3, seed=2)
    b = generate_noncommuting_resolution(3, 3, seed=4)
    yield "scaled-0.9", build_effect_set([0.9 * e for e in a.matrices]), 0
    # a non-commuting resolution on one block, 0.8× another on the other, in a random basis
    u, _ = np.linalg.qr(_rand(6, 6, 17))
    zero = np.zeros((3, 3))
    blocks = [np.block([[x, zero], [zero, 0.8 * w]]) for x, w in zip(a.matrices, b.matrices)]
    yield "block-resolution-plus-0.8", build_effect_set([u @ m @ u.conj().T for m in blocks]), 1
    yield "d2-unit-projector-not-commuting", _d2_unit_projector_not_commuting(), 0


NONCOMMUTING_SUBNORMALIZED = {name: (es, dim) for name, es, dim in _noncommuting_subnormalized_sets()}


@pytest.mark.parametrize("name", sorted(NONCOMMUTING_SUBNORMALIZED))
def test_noncommuting_subnormalized_fixed_points_match_stacked_kernel(name, tmp_path, capsys):
    # Fix(Φ) = {Eᵢ}′ ∩ {X : X = PXP}: the kernel of [Cᵢ; I⊗Q; Qᵀ⊗I], Q = I - P.
    es, dim = NONCOMMUTING_SUBNORMALIZED[name]
    assert not es.commuting
    eye = np.eye(es.dim)
    q = eye - unit_projector(es)
    want = _reference_nullspace(np.vstack(_commutator_blocks(es) + [np.kron(eye, q), np.kron(q.T, eye)]))
    assert want.shape[1] == dim
    _assert_same_kernel(fixed_point_space(es).vectors, want)
    rep = verify_subnormalized_fixed_points(es)
    assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.2", dim, dim, True)
    path = tmp_path / "set.json"
    dump_effect_set(path, es)
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "3.2"


def _in_basis(u, diagonals):
    """Effects u·diag(t)·u† for the columns t of a (d, n) array of joint eigenvalue tuples."""
    mats = [(u * t) @ u.conj().T for t in np.asarray(diagonals, dtype=float).T]
    return build_effect_set([(m + m.conj().T) / 2 for m in mats])


def _block_scalar(d, b, seed):
    """E₁ = q·diag(0.6·I_b, distinct values)·q†, E₂ = √(I - E₁²): both effects are scalar on a b-dimensional block."""
    t = np.concatenate([np.full(b, 0.6), np.linspace(0.05, 0.5, d - b)])
    return _in_basis(_unitary(d, seed), np.column_stack([t, np.sqrt(1.0 - t**2)]))


def _coupled_scalar(k, seed):
    """Eᵢ = q(Aᵢ ⊗ I_k)q† for a non-commuting 2×2 resolution Aᵢ.

    Each Ẽᵢ is scalar on both k-dimensional eigenspaces of H, but couples
    them, so neither block is free and the commutant is I₂ ⊗ M_k (dim k²).
    """
    q = _unitary(2 * k, seed)
    mats = [q @ np.kron(a, np.eye(k)) @ q.conj().T for a in generate_noncommuting_resolution(2, 3, seed).matrices]
    return build_effect_set([(m + m.conj().T) / 2 for m in mats])


def _direct_sum(d_commuting, d_noncommuting, seed):
    """q·(Cᵢ ⊕ Nᵢ)·q† for a commuting resolution Cᵢ and a non-commuting one Nᵢ, three effects each."""
    d = d_commuting + d_noncommuting
    pairs = zip(
        generate_commuting_resolution(d_commuting, 3, seed).matrices,
        generate_noncommuting_resolution(d_noncommuting, 3, seed).matrices,
    )
    zero = np.zeros((d_commuting, d_noncommuting))
    mats = [np.block([[c, zero], [zero.T, m]]) for c, m in pairs]
    q = _unitary(d, seed)
    return build_effect_set([(m + m.conj().T) / 2 for m in (q @ m @ q.conj().T for m in mats)])


def _dusty_scalar_block(t):
    """E₁ = diag(v) + t·e₁e₁₆ᵀ + (t/2)·e₁₆e₁ᵀ, v = (0.6·I₁₂, 0.62, 0.64, 0.66, 0.68), E₂ = diag(√(1 - v²)).

    E₁ carries non-Hermitian dust in both triangles.  Validation keeps its
    Hermitian part, 3t/4 in both corners, which couples the scalar block to
    the last eigenvector: below the cut at t = 1e-11, above it at 3e-11.
    """
    v = np.concatenate([np.full(12, 0.6), [0.62, 0.64, 0.66, 0.68]])
    e1 = np.diag(v).astype(complex)
    e1[0, 15] += t
    e1[15, 0] += t / 2
    return build_effect_set([e1, np.diag(np.sqrt(1.0 - v**2))])


def _split_family(d, seed):
    """Commuting resolution q·diag(cos θ)·q†, q·diag(sin θ)·q† on Cᵈ with three tuples H merges into one block.

    The tuples lie on the unit circle, so a chord of angle η is η long.  The first two are 3e-12
    apart, below the commutant cut (1.2e-10), and the third 1e-9 from them, above it:
    the commutant keeps the pair as one block (dim 4) and the third apart.  A split of the merged
    block may part the third from the pair, but not the pair, although its gap is more than
    ELEMENT_GAP times the block's spread.  The other d - 3 tuples are 0.09 or more apart.
    """
    theta = np.concatenate([[0.2, 0.2 + 3e-12, 0.2 + 1e-9], 1.5 - 0.09 * np.arange(d - 3)])
    return _in_basis(_unitary(d, seed), np.column_stack([np.cos(theta), np.sin(theta)]))


def _degenerate_element_sets():
    """(name, set, commutant dimension) where H = Σ cᵢEᵢ has repeated eigenvalues."""
    yield "identity-d3", build_effect_set([np.eye(3)]), 9
    yield "scalars-d4", build_effect_set([0.6 * np.eye(4), 0.8 * np.eye(4)]), 16
    yield "pinching-d2", build_effect_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), 2
    p = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    yield "rotated-pinching-d5", _in_basis(_unitary(5, 3), np.column_stack([np.diag(p), 1 - np.diag(p)])), 13
    t = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.48, 0.6, 0.64]])
    yield "joint-tuple-ties-d6", _in_basis(_unitary(6, 5), t[[0, 0, 1, 1, 1, 2]]), 14
    # H merges the first two tuples (gap 3e-6·‖H‖); only the last effect tells them apart
    t = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.20001], [0.1, 0.2, 0.3]])
    yield "merged-block-split-by-last-effect", _in_basis(_unitary(3, 7), t), 3
    es, _ = NONCOMMUTING_SUBNORMALIZED["block-resolution-plus-0.8"]
    yield "block-resolution-plus-0.8", es, 2
    es, _ = NONCOMMUTING_SUBNORMALIZED["d2-unit-projector-not-commuting"]
    yield "d2-unit-projector-not-commuting", es, 1
    for d, b in ((4, 2), (8, 5), (16, 12)):
        yield f"block-scalar-d{d}-b{b}", _block_scalar(d, b, seed=d + b), b * b + d - b
    for k in (2, 4, 8):
        yield f"coupled-scalar-k{k}", _coupled_scalar(k, seed=k), k * k
    for t, dim in ((1e-11, 148), (3e-11, 125)):
        yield f"dusty-scalar-block-t{t:g}", _dusty_scalar_block(t), dim
    for d in (4, 8, 16):
        yield f"split-d{d}", _split_family(d, seed=30 + d), d + 2


DEGENERATE_ELEMENT_SETS = {name: (es, dim) for name, es, dim in _degenerate_element_sets()}
COMMUTANT_SETS = {
    **EFFECT_SETS,
    "cr-d16-n3": generate_commuting_resolution(16, 3, 56),
    "cs-d16-n3": generate_commuting_subnormalized(16, 3, 56, 0.5),
    "nc-d16-n3": generate_noncommuting_resolution(16, 3, 56),
    **{name: es for name, (es, _) in DEGENERATE_ELEMENT_SETS.items()},
    "direct-sum-d4-d3": _direct_sum(4, 3, seed=21),
    "direct-sum-d8-d6": _direct_sum(8, 6, seed=22),
}


@pytest.mark.parametrize("name", sorted(COMMUTANT_SETS))
def test_commutant_matches_reference(name):
    es = COMMUTANT_SETS[name]
    want = _dense_commutant(es)
    distance = PROJECTOR_TOL
    if name in DEGENERATE_ELEMENT_SETS:
        assert want.shape[1] == DEGENERATE_ELEMENT_SETS[name][1]
    if name.startswith(("dusty", "split")):
        # The dust (or the split family's third tuple) puts singular values within two decades of
        # the cut, so either route fixes the kernel only to about ε·σ₁/σ, σ the smallest one
        # dropped (Davis & Kahan).
        s = np.linalg.svd(np.vstack(_commutator_blocks(es)), compute_uv=False)
        distance = max(PROJECTOR_TOL, 16 * np.finfo(float).eps * s[0] / s[-want.shape[1] - 1])
    got = commutant(es).vectors
    _assert_same_kernel(got, want, distance)
    # the solved columns come last, and each is vec(X) of a Hermitian X
    solved = got[:, got.shape[1] - operation._commutant_frame(es).y.shape[1] :].T.reshape(-1, es.dim, es.dim)
    assert np.abs(solved - solved.conj().transpose(0, 2, 1)).max(initial=0.0) <= 1e-13


def test_verify_and_analyze_read_one_matrix_on_the_dusty_scalar_block(tmp_path, capsys):
    # Commutant, target and Φ read the one Hermitian E₁ that validation stored.
    es, dim = DEGENERATE_ELEMENT_SETS["dusty-scalar-block-t1e-11"]
    rep = verify_resolution_fixed_points(es)
    assert (rep.verdict, rep.fixed_dim, rep.target_dim) == (True, dim, dim)
    code, out, _ = _run("analyze", es, tmp_path / "set.json", capsys)
    body = json.loads(out)
    assert code == 0 and body["commutant_dim"] == sum(k * k for k in body["joint_block_dims"]) == dim


@pytest.mark.parametrize(
    "es,dim",
    [
        *((build_effect_set([s * np.eye(8) for s in scalars]), 64) for scalars in ([0.6, 0.8], [0.5], [0.0])),
        (_block_scalar(8, 5, seed=13), 28),
        (generate_commuting_resolution(8, 3, 81), 8),
    ],
    ids=["resolution", "half", "zero", "block-scalar", "commuting-resolution"],
)
def test_commutant_of_scalar_sets_factors_nothing(es, dim, monkeypatch):
    # Every block of H is free, so every unknown is kept: no commutator block is stacked or factored.
    want = _dense_commutant(es)

    def no_qr(*args, **kwargs):
        raise AssertionError("commutant factored a commutator block of a scalar set")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    got = commutant(es)
    assert got.dim == dim
    _assert_same_kernel(got.vectors, want)


def _element_eigenvalues(es):
    """Ascending eigenvalues of H = Σ cᵢEᵢ for the seeded c of `commutant`."""
    c = philox_generator(0).standard_normal(es.n)
    return np.linalg.eigvalsh(sum(ci * e for ci, e in zip(c, es.matrices)))


def _element_gap_set(gap, seed):
    """Commuting resolution on C⁵ whose random element H has relative eigenvalue gap `gap`.

    The two tuples a and b are far apart on the unit sphere, yet
    c·b - c·a = gap·max|c·λ| for the seeded c of `commutant`, so H nearly
    merges two eigenspaces that the effects keep apart.  Tuple a appears
    twice, so H also has an exact tie.
    """
    c = philox_generator(0).standard_normal(3)
    low = np.array([-c[0], 0.0, -c[2]]) / np.hypot(c[0], c[2])  # c·λ = -‖H‖
    a = np.array([c[1], -c[0], 0.0]) / np.hypot(c[0], c[1])  # c·λ = 0
    target = c @ a + gap * abs(c @ low)
    phi = np.arctan(-c[1] / c[2])  # c·λ = 0 on the arc λ = (0, cos φ, sin φ)
    for _ in range(50):
        b = np.array([0.0, np.cos(phi), np.sin(phi)])
        phi -= (c @ b - target) / (c[2] * np.cos(phi) - c[1] * np.sin(phi))
    return _in_basis(_unitary(5, seed), [low, a, b, [0.0, 1.0, 0.0], a])


@pytest.mark.parametrize("k", range(2, 29))
def test_commutant_across_element_gaps(k):
    # Relative gaps of H from 1e-1 down to 1e-14, two per decade.
    gap = 10.0 ** (-k / 2)
    es = _element_gap_set(gap, seed=k)
    w = _element_eigenvalues(es)
    assert abs(np.sort(np.diff(w))[1] / np.abs(w).max() - gap) <= 0.05 * gap
    want = _dense_commutant(es)
    assert want.shape[1] == 7
    _assert_same_kernel(commutant(es).vectors, want)
    assert verify_resolution_fixed_points(es).verdict


def _near_commuting(delta, seed, d=4):
    """E₁ = A/√2, E₂ = UAU†/√2 with U = exp(iδK), E₃ = √(I - E₁² - E₂²): commutators of order δ."""
    u = _unitary(d, seed)
    a = (u * np.linspace(0.65, 0.95, d)) @ u.conj().T
    k = _rand(d, d, seed + 1)
    w, v = np.linalg.eigh(k + k.conj().T)
    rot = (v * np.exp(1j * delta * w)) @ v.conj().T
    e1 = (a + a.conj().T) / (2 * np.sqrt(2))
    e2 = rot @ e1 @ rot.conj().T
    e2 = (e2 + e2.conj().T) / 2
    w, v = np.linalg.eigh(np.eye(d) - e1 @ e1 - e2 @ e2)
    e3 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return [e1, e2, (e3 + e3.conj().T) / 2]


def _near_commuting_distance(delta):
    # The smallest non-kernel singular value is of order δ, so either route
    # fixes the kernel only to about ε/δ (measured: up to 1.2e-15/δ).
    return max(PROJECTOR_TOL, 1e-14 / delta)


@pytest.mark.parametrize("k", range(6, 19))
def test_commutant_of_near_commuting_sets_matches_reference(k):
    # The δ-sweep δ = 1e-3 … 1e-9: structured and dense kernels agree.
    delta = 10.0 ** (-k / 2)
    es = build_effect_set(_near_commuting(delta, seed=k))
    _assert_same_kernel(commutant(es).vectors, _dense_commutant(es), _near_commuting_distance(delta))


def test_verify_near_commuting_resolutions(tmp_path, capsys):
    # The δ-sweep δ = 1e-3 … 1e-9 at the verifier: every set is a valid
    # resolution, so each δ must give verdict true or Undecided, and the
    # command exit 0 or 3, never 1.  The margin 1 - w of the second eigenvalue
    # of Φ is of order δ², so it meets the rounding floor near δ = 1e-6.
    wrong = []
    for k in range(6, 19):
        delta = 10.0 ** (-k / 2)
        es = build_effect_set(_near_commuting(delta, seed=k))
        try:
            rep = verify_resolution_fixed_points(es)
            if not rep.verdict:
                wrong.append((delta, rep.fixed_dim, rep.target_dim, rep.distance))
        except Undecided:
            pass
        path = tmp_path / f"near-{k}.json"
        dump_effect_set(path, es)
        code = main(["verify", str(path)])
        capsys.readouterr()
        if code not in (0, 3):
            wrong.append((delta, "exit", code))
    assert wrong == []


@pytest.mark.parametrize("k", range(3, 9))
def test_commutant_cut_sees_the_unrestricted_scale(k):
    # A near-commuting block beside an exactly commuting one, with every
    # eigenvalue gap of H above ELEMENT_GAP: the restricted system has norm
    # of order δ, but the eigenvector dust of the commuting block must stay
    # dust, so the commutant keeps both block identities (dim 5).  Cut against
    # the restricted norm, δ ≤ 1e-6 gave dim 1.
    zero = np.zeros((4, 4))
    t = np.array([[0.0, 1.0, 0.0], [0.0, 0.6, 0.8], [0.6, 0.8, 0.0], [0.8, 0.0, 0.6]])
    delta = 10.0**-k
    mats = [np.block([[m, zero], [zero, np.diag(x)]]) for m, x in zip(_near_commuting(delta, seed=k), t.T)]
    u = _unitary(8, 40 + k)
    es = build_effect_set([(m + m.conj().T) / 2 for m in (u @ m @ u.conj().T for m in mats)])
    w = _element_eigenvalues(es)
    assert np.diff(w).min() > 5e-3 * np.abs(w).max()
    want = _dense_commutant(es)
    assert want.shape[1] == 5
    _assert_same_kernel(commutant(es).vectors, want, _near_commuting_distance(delta))


def test_unit_projector_need_not_commute_with_the_effects():
    # Here the compressed commutant P·{Eᵢ}′ = span{P} is not the fixed-point space {0}.
    es = _d2_unit_projector_not_commuting()
    p = unit_projector(es)
    assert np.abs(es.sum_of_squares - np.diag([1.0, 0.619121])).max() < 1e-6
    assert abs(mk.operator_norm(p @ es.matrices[0] - es.matrices[0] @ p) - 0.3) < 1e-12
    assert len(mk.orthonormalize([p @ mk.unvec(c, 2) for c in commutant(es).vectors.T])) == 1
    assert fixed_point_space(es).dim == 0


@pytest.mark.parametrize("eps", [2e-9, 5e-9, 9e-9])
def test_unit_projector_of_the_unit_deficit_family(eps):
    # F = diag(1, 1, 1 - ε): the deficit lies beyond the 1e-9 cut.
    r = np.sqrt(1.0 - eps)
    es = build_effect_set([np.diag([0.6, 1.0, 0.28 * r]), np.diag([0.8, 0.0, 0.96 * r])])
    assert np.abs(unit_projector(es) - np.diag([1.0, 1.0, 0.0])).max() < 1e-12
    assert np.abs(unit_projector(build_effect_set([np.diag([1.0, 0.5])])) - np.diag([1.0, 0.0])).max() < 1e-12


def test_unit_projector_without_unit_eigenvalue_is_the_exact_zero_matrix():
    p = unit_projector(generate_commuting_subnormalized(4, 2, seed=61, unit_fraction=0.0))
    assert p.dtype == np.complex128 and p.shape == (4, 4)
    assert not p.any()


@pytest.mark.parametrize(
    "name", sorted(k for k, es in SUBNORMALIZED_SETS.items() if es.normalization is Normalization.SUBNORMALIZED)
)
def test_subnormalized_target_matches_the_compressed_commutant(name):
    # The projector route: with Q = I - P, the target is V·ker[vec(QBⱼ)]ⱼ,
    # V the commutant basis Bⱼ; its dimension must be the report's.
    es = SUBNORMALIZED_SETS[name]
    q = np.eye(es.dim) - unit_projector(es)
    v = commutant(es).vectors
    want = _reference_nullspace(np.column_stack([mk.vec(q @ mk.unvec(c, es.dim)) for c in v.T]))
    rep = verify_subnormalized_fixed_points(es)
    assert rep.verdict and rep.target_dim == want.shape[1]


def _reference_channel_norm(es, probes, seed):
    """One probe at a time: two (d, d) draws, a norm, Φ as a list sum, a norm."""

    def phi(b):
        return mk.sum_terms([(e @ b) @ e for e in es.matrices])

    rng = philox_generator(seed)
    max_probe = 0.0
    for _ in range(probes):
        b = rng.standard_normal((es.dim, es.dim)) + 1j * rng.standard_normal((es.dim, es.dim))
        b = b / mk.operator_norm(b)
        max_probe = max(max_probe, mk.operator_norm(phi(b)))
    value = mk.operator_norm(es.sum_of_squares)
    return ChannelNormCertificate(value, mk.operator_norm(phi(np.eye(es.dim))), max_probe, probes)


def _flavor(flavor, d):
    if flavor == "cr":
        return generate_commuting_resolution(d, 3, 40 + d)
    if flavor == "cs":
        return generate_commuting_subnormalized(d, 3, 40 + d, 0.5)
    if d == 1:
        return build_effect_set([0.6 * np.eye(1), 0.8 * np.eye(1)])
    return generate_noncommuting_resolution(d, 3, 40 + d)


@pytest.mark.parametrize("probes", [0, 1, 7, 200])
@pytest.mark.parametrize("d", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("flavor", ["cr", "cs", "nc"])
def test_channel_norm_matches_per_probe_loop(flavor, d, probes):
    es = _flavor(flavor, d)
    want = _reference_channel_norm(es, probes, d + probes)
    assert channel_norm(es, probes, seed=d + probes) == want


def test_c5_probe_excess_matches_per_probe_loop():
    sets = (
        list(_resolution_pool(QUICK))
        + [es for _, es in _subnormalized_pool(QUICK)]
        + list(_noncommuting_pool(QUICK))
    )
    certs = [_reference_channel_norm(es, QUICK.norm_probes, 7000 + i) for i, es in enumerate(sets)]
    want = max(c.max_probe_image_norm - c.value for c in certs)
    assert run_criterion("C5", QUICK).details["max_probe_excess"] == want


# Sets where the pruned image maximum meets its edge cases: images so small that
# their squares are subnormal, all-zero images (whose Rayleigh quotient is 0/0),
# and sets whose images all tie at σ = 1 or at one common value.
PRUNE_EDGE_SETS = {
    "subnormal": [1e-160 * np.eye(4), 1e-170 * np.diag([1.0, 0.5, 0.2, 0.1])],
    "zero": [np.zeros((3, 3))],
    "identity": [np.eye(4)],
    "halves": [0.5 * np.eye(2), 0.5 * np.eye(2)],
}


@pytest.mark.parametrize("probes", [0, 1, 50])
@pytest.mark.parametrize("name", sorted(PRUNE_EDGE_SETS))
def test_pruned_image_maximum_edge_cases_match_per_probe_loop(name, probes):
    es = build_effect_set(PRUNE_EDGE_SETS[name])
    assert channel_norm(es, probes, seed=probes) == _reference_channel_norm(es, probes, probes)


@pytest.mark.parametrize("probes", [0, 1, 50])
def test_pruned_image_maximum_on_single_effect_pool_sets(probes):
    # An n = 1 resolution has E² = I, so every probe image ties at σ ≈ 1.
    sets = [es for es in _resolution_pool(QUICK) if len(es.matrices) == 1]
    assert sets
    for i, es in enumerate(sets):
        assert channel_norm(es, probes, seed=i) == _reference_channel_norm(es, probes, i)


def _stack(*scales):
    rng = philox_generator(len(scales))
    return np.array([c * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for c in scales])


_STACKS = pytest.mark.parametrize(
    "stack",
    [
        _stack(0.0, 0.7), _stack(0.0, 0.0), _stack(1e-300, 1e-200), _stack(1e200, 1.0, 1e-200),
        _stack(1.0, 1.0 + 1e-15), _stack(0.7), _stack(0.0), _stack(1e-300), _stack(1e200),
    ],
    ids=["zero-beside-nonzero", "all-zero", "tiny", "huge", "near-tie", "one", "one-zero", "one-tiny", "one-huge"],
)


@_STACKS
def test_max_singular_value_matches_the_full_stack_svd(stack):
    # A zero matrix's Rayleigh quotient is 0/0; it must not hide the others' lower bounds.
    want = float(np.linalg.svd(stack, compute_uv=False).max(initial=0.0))
    assert mk._max_singular_value(stack) == want


@pytest.mark.parametrize("where", ["below", "between", "above"])
@_STACKS
def test_max_singular_value_returns_the_larger_of_best_and_the_stack(stack, where, monkeypatch):
    # best is a caller's running maximum; above every singular value (and bound) no matrix is factored.
    sigma = np.linalg.svd(stack, compute_uv=False)
    want = float(sigma.max(initial=0.0))
    best = {"below": sigma.min() / 2, "between": float(np.median(sigma)), "above": 2 * want or 1.0}[where]
    factored, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: factored.append(len(a)) or svd(a, *args, **kw))
    got = mk._max_singular_value(stack, best)
    monkeypatch.undo()
    assert got == max(best, want)
    assert where != "above" or sum(factored) == 0


@pytest.mark.parametrize(("generate", "bound"), [(generate_commuting_resolution, 50), (generate_noncommuting_resolution, 120)])
def test_pruned_image_maximum_takes_few_svds(generate, bound, monkeypatch):
    # The first stacked SVD normalizes the 200 probes; the second gets only the images that can hold the maximum.
    es, shapes, svd = generate(8, 3, 11), [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    cert = channel_norm(es, probes=200)
    monkeypatch.undo()
    stacks = [shape[0] for shape in shapes if len(shape) == 3]
    assert len(stacks) == 2 and stacks[0] == 200 and 1 <= stacks[1] <= bound
    assert cert == _reference_channel_norm(es, 200, 0)


def test_c5_full_scale_matches_the_full_stack_svd(monkeypatch):
    pruned, agree = mk._max_singular_value, []

    def both(images):
        got = pruned(images)
        agree.append(got == float(np.linalg.svd(images, compute_uv=False).max(initial=0.0)))
        return got

    monkeypatch.setattr(mk, "_max_singular_value", both)
    result = run_criterion("C5", FULL)
    assert result.passed and len(agree) == result.details["sets"] and all(agree)


@pytest.mark.parametrize("d", [2, 8, 24, 64])
def test_stacked_phi_matches_per_matrix_phi(d):
    # `_residual` applies Φ to stacks, and `verify`'s distance reads those bits.
    es = generate_noncommuting_resolution(d, 3, d)
    rng = philox_generator(d)
    stack = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    want = np.array([_phi(es.matrices, b) for b in stack])
    assert np.array_equal(_phi(es.matrices, stack), want)
    assert np.array_equal(want[0], mk.sum_terms((e @ stack[0]) @ e for e in es.matrices))


# ---------------------------------------------------------------------------
# the eigenvalue route of the verifiers against the eigenvector route


def _floor(d):
    """SPECTRUM_FLOOR·d²·ε for ‖Φ‖ = 1: how far a computed eigenvalue of Φ may sit from the exact one."""
    return 64 * d * d * np.finfo(float).eps


def _run(command, es, path, capsys):
    """(exit code, stdout, stderr) of `lueders command` on es written to path."""
    dump_effect_set(path, es)
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _assert_matches_the_eigenvector_route(es, verify, path, capsys):
    """Verdict, target_dim and fixed_dim against `fixed_point_space`, `subspaces_equal` and the dense S."""
    d = es.dim
    rep = verify(es)
    fixed, target = fixed_point_space(es), _verifier_target(es)
    old = mk.subspaces_equal(fixed, target).equal and fixed.dim == target.dim
    assert (rep.verdict, rep.target_dim) == (old, target.dim)
    s = LuedersOperation(es).superoperator
    assert rep.fixed_dim == _reference_nullspace(s - np.eye(d * d)).shape[1]
    code, out, _ = _run("analyze", es, path, capsys)
    assert (code, json.loads(out)["fixed_dim"]) == (0, rep.fixed_dim)
    spectrum = np.linalg.eigvalsh(s)
    assert np.abs(np.linalg.eigvalsh(_hermitian_coordinates(es.matrices)) - spectrum).max() <= 1e-13


@pytest.mark.parametrize("index", range(51))
def test_verifier_matches_the_eigenvector_route_on_quick_pools(index, tmp_path, capsys):
    _assert_matches_the_eigenvector_route(*list(_quick_pools())[index], tmp_path / "set.json", capsys)


CROSS_CHECK_SETS = {
    **EFFECT_SETS,
    **{f"{flavor}-d{d}-n3": _flavor(flavor, d) for flavor in ("cr", "cs", "nc") for d in (12, 16)},
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_SETS))
def test_verifier_matches_the_eigenvector_route_on_generated_sets(name, tmp_path, capsys):
    es = CROSS_CHECK_SETS[name]
    resolution = es.normalization is Normalization.RESOLUTION
    _assert_matches_the_eigenvector_route(
        es, verify_resolution_fixed_points if resolution else verify_subnormalized_fixed_points,
        tmp_path / "set.json", capsys,
    )


def _scalar_beside_noncommuting(b, d_noncommuting, seed):
    """q·(sᵢ·I_b ⊕ Nᵢ)·q†, s = (0.6, 0.8, 0), for a non-commuting resolution Nᵢ of three effects.

    The commutant is M_b ⊕ C·I: the b² matrix units of one free block, then one
    solved column for the identity on the non-commuting part.
    """
    zero = np.zeros((b, d_noncommuting))
    mats = [
        np.block([[s * np.eye(b), zero], [zero.T, m]])
        for s, m in zip((0.6, 0.8, 0.0), generate_noncommuting_resolution(d_noncommuting, 3, seed).matrices)
    ]
    q = _unitary(b + d_noncommuting, seed)
    return build_effect_set([(m + m.conj().T) / 2 for m in (q @ m @ q.conj().T for m in mats)])


def test_residual_matches_the_superoperator_across_chunks():
    # d = 32: 512 columns per chunk, so the 576 free columns take two and the solved one a third.
    # The residual is taken in the commutant's eigenframe, so on the target it agrees with
    # ‖S·Q - Q‖ of the commutant basis Q within the frame's rotation error (see `_verify_fixed_points`).
    es = _scalar_beside_noncommuting(24, 8, seed=32)
    frame = operation._commutant_frame(es)
    on, v = operation._target(es, frame)
    assert (np.count_nonzero(on), v.shape[1]) == (576, 1)
    s = LuedersOperation(es).superoperator
    q = commutant(es).vectors
    columns = np.linalg.norm(s @ q - q, axis=0)
    rotation = 4 * 32 * np.finfo(float).eps * sum(float(e.eigenvalues[-1]) ** 2 for e in es.effects)
    rho, rho_max = _residual(frame.ets, on, v)
    assert abs(rho - np.linalg.norm(columns)) <= rotation
    assert abs(rho_max - columns.max()) <= rotation
    # Off the target Φ moves most columns by O(1): a random mask of free columns (two chunks),
    # then three random orthonormal solved columns off it, against their operators u·E_pq·u†, u·X·u†.
    rng = np.random.Generator(np.random.Philox(33))
    on = rng.random((32, 32)) < 0.6
    v = np.linalg.qr(rng.standard_normal((np.count_nonzero(~on), 3)))[0]
    u = frame.u
    rows, cols = np.nonzero(on)
    free = [np.kron(u[:, c].conj(), u[:, r]) for r, c in zip(rows, cols)]
    y = np.zeros((3, 32, 32))
    y[:, ~on] = v.T
    x = (y + y.transpose(0, 2, 1)) / 2 + 1j * (y - y.transpose(0, 2, 1)) / 2
    q = np.column_stack(free + [mk.vec(u @ m @ u.conj().T) for m in x])
    columns = np.linalg.norm(s @ q - q, axis=0)
    rho, rho_max = _residual(frame.ets, on, v)
    assert rows.size > 512 and rho > 1.0
    assert abs(rho - np.linalg.norm(columns)) <= 1e-12 * rho
    assert abs(rho_max - columns.max()) <= 1e-12 * rho_max


@pytest.mark.parametrize(
    "es",
    [build_effect_set([0.6 * np.eye(32), 0.8 * np.eye(32)]), _block_scalar(32, 24, seed=56)],
    ids=["scalar-d32", "block-scalar-d32-b24"],
)
def test_verify_writes_no_operator_basis(es):
    # Targets of d² = 1024 and b² + d - b = 584 free columns: the residual reads them in the
    # commutant's frame, one chunk at a time, and no complex d²×k basis (16·d²·k bytes) is written.
    # A chunk is 8·d⁴ bytes at d = 32; it is freed before the next is formed, and its norms are
    # taken an eighth of it at a time, so no second chunk-sized array is ever alive.
    d = es.dim
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_resolution_fixed_points(es)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verdict and rep.target_dim in (d * d, 584)
    assert peak <= 1.25 * 8 * d**4


@pytest.mark.parametrize("d", [8, 16, 24, 32])
def test_commuting_resolution_margin_is_half_the_closest_tuple_distance_squared(d):
    # Φ has eigenvalue ⟨λ(a), λ(b)⟩ with multiplicity dₐ·d_b over pairs of joint
    # blocks, and ‖λ(a)‖ = 1 for a resolution, so the k = Σ dⱼ² eigenvalues at 1
    # are followed by 1 - ½·min over a ≠ b of ‖λ(a) - λ(b)‖².
    es = generate_commuting_resolution(d, 3, 70 + d)
    blocks = joint_eigenspaces(es)
    k = sum(b.dim**2 for b in blocks)
    lam = np.array([b.values for b in blocks])
    apart = ~np.eye(len(blocks), dtype=bool)
    margin = 0.5 * np.linalg.norm(lam[:, None] - lam[None], axis=-1)[apart].min() ** 2
    w = np.linalg.eigvalsh(_hermitian_coordinates(es.matrices))
    assert np.abs(w[-k:] - 1.0).max() <= _floor(d)
    assert abs((1.0 - w[-k - 1]) - margin) <= _floor(d)
    rep = verify_resolution_fixed_points(es)
    assert (rep.fixed_dim, rep.target_dim, rep.verdict) == (k, k, True)


def _chord_set(delta, q):
    """Commuting resolution q·diag(cos θ)·q†, q·diag(sin θ)·q† on C⁴ whose first two tuples are exactly δ apart.

    The tuples (cos θ, sin θ) lie on the unit circle, and the chord between
    angles θ and θ + 2·arcsin(δ/2) is δ, so 1 - w₍₅₎ = ½δ².  The other
    pairs are at least 0.4 apart.
    """
    theta = np.array([0.3, 0.3 + 2 * np.arcsin(delta / 2), 0.9, 1.3])
    return _in_basis(q, np.column_stack([np.cos(theta), np.sin(theta)]))


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("k", range(8, 17))
def test_chord_family_places_the_floor(k, rotated, tmp_path, capsys):
    # δ = 1e-4 … 1e-8, margin ½δ² = 5e-9 … 5e-17, computed to a few ε: the
    # verdict is true while the margin exceeds the floor 2.3e-13 at d = 4
    # (δ ≥ 1e-6) and Undecided (exit 3) from δ = 3.2e-7 down.
    delta = 10.0 ** (-k / 2)
    es = _chord_set(delta, _unitary(4, 9) if rotated else np.eye(4))
    margin = 0.5 * delta**2
    w = np.linalg.eigvalsh(_hermitian_coordinates(es.matrices))
    assert abs((1.0 - w[-5]) - margin) <= 16 * np.finfo(float).eps
    if margin > _floor(4):
        rep = verify_resolution_fixed_points(es)
        assert (rep.theorem, rep.fixed_dim, rep.target_dim, rep.verdict) == ("3.1", 4, 4, True)
    else:
        with pytest.raises(Undecided, match="dimension 4"):
            verify_resolution_fixed_points(es)
        path = tmp_path / "chord.json"
        dump_effect_set(path, es)
        assert main(["verify", str(path)]) == 3
        assert "Undecided" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze reports the verifier's count


def _agreement_sets():
    """The near-commuting δ-sweep, the chord family and both unit-deficit families, each across its Undecided edge.

    The dusty scalar block crosses the commutant cut between t = 1e-11 and
    3e-11, and the block-scalar sets hold free blocks beside solved ones.
    """
    for k in range(6, 19):
        yield f"near-commuting-{k}", build_effect_set(_near_commuting(10.0 ** (-k / 2), seed=k))
    for basis, q, chord_q in (("diagonal", np.eye(3), np.eye(4)), ("rotated", _rotation(), _unitary(4, 9))):
        for k in range(8, 17):
            yield f"chord-{basis}-{k}", _chord_set(10.0 ** (-k / 2), chord_q)
        for eps in UNIT_DEFICIT_EPS + (1e-10, 5e-10):
            yield f"unit-deficit-{basis}-{eps:g}", _unit_deficit_set(eps, q)
    for t in (1e-11, 3e-11, 5e-11):
        yield f"dusty-scalar-block-t{t:g}", _dusty_scalar_block(t)
    for d, b in ((4, 2), (8, 5), (16, 12)):
        yield f"block-scalar-d{d}-b{b}", _block_scalar(d, b, seed=d + b)


AGREEMENT_SETS = dict(_agreement_sets())


@pytest.mark.parametrize("name", sorted(AGREEMENT_SETS))
def test_analyze_reports_the_verifier_count(name, tmp_path, capsys):
    # Either both commands report the same fixed_dim, or both exit 3 with Undecided.
    # A body with joint blocks never reports a commutant_dim other than Σ dⱼ².
    es = AGREEMENT_SETS[name]
    path = tmp_path / "set.json"
    verify_code, verify_out, verify_err = _run("verify", es, path, capsys)
    code, out, err = _run("analyze", es, path, capsys)
    if verify_code == 3:
        assert (code, out) == (3, "")
        assert "Undecided" in verify_err and "Undecided" in err
    else:
        assert verify_code in (0, 1) and code == 0
        body = json.loads(out)
        assert body["fixed_dim"] == json.loads(verify_out)["fixed_dim"]
        assert "joint_block_dims" not in body or body["commutant_dim"] == sum(k * k for k in body["joint_block_dims"])


ROUTE_SETS = {**CROSS_CHECK_SETS, **AGREEMENT_SETS, **{name: es for name, (es, _) in DEGENERATE_ELEMENT_SETS.items()}}


def _outcome(es):
    """The verifier's report, or the message of its Undecided."""
    try:
        return operation._verify_fixed_points(es)
    except Undecided as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(ROUTE_SETS))
def test_certificate_agrees_with_the_eigenvalue_count(name, monkeypatch):
    # The block-pair route, the one-group route forced on every set, and the eigvalsh
    # route alone give the same report or the same Undecided message.  Each generated set is
    # valid with a margin far above rounding, so there both certificates must succeed.  The
    # degenerate-element sets add targets with many solved columns (coupled-scalar).
    es = ROUTE_SETS[name]
    blocks, certified = operation._certify_blocks, []
    monkeypatch.setattr(operation, "_certify_blocks", lambda *args: certified.append(blocks(*args)) or certified[-1])
    got = _outcome(es)
    certify = operation._certify  # the branch taken where δ > τ: one Cholesky of the whole matrix
    monkeypatch.setattr(operation, "_certify_blocks", lambda es, frame, on, v, tau, r: certified.append(
        certify(frame.ets, on, v, tau + r)) or certified[-1])
    assert got == _outcome(es)
    monkeypatch.setattr(operation, "_certify_blocks", lambda *args: False)
    assert got == _outcome(es)
    assert certified in ([True, True], []) or name not in CROSS_CHECK_SETS


def _certify_calls(es, monkeypatch):
    """The orders of the stacks `verify` hands `_certify`: all below d on the block-pair route, d on the one group."""
    certify, orders = operation._certify, []
    monkeypatch.setattr(operation, "_certify", lambda ets, *args: orders.append(ets.shape[-1]) or certify(ets, *args))
    rep = operation._verify_fixed_points(es)
    monkeypatch.undo()
    assert rep.verdict
    return orders


@pytest.mark.parametrize("flavor", ["commuting-resolution", "commuting-subnormalized", "noncommuting-resolution"])
@pytest.mark.parametrize("d", [2, 4, 8, 16, 24])
def test_commuting_sets_take_the_block_pair_route(flavor, d, monkeypatch):
    # Generated commuting sets drop only eigenvector dust of H (δ ≤ τ): no stack of order d is factored.
    # A non-commuting set drops its coupling (δ > τ) and takes the one Cholesky of the whole matrix.
    for n, seed in ((3, 0), (8, 1)):
        if flavor == "commuting-resolution":
            es = generate_commuting_resolution(d, n, seed)
        elif flavor == "commuting-subnormalized":
            es = generate_commuting_subnormalized(d, n, seed, 0.5)
        else:
            es = generate_noncommuting_resolution(d, n, seed)
        orders = _certify_calls(es, monkeypatch)
        assert orders == [d] if flavor.startswith("non") else max(orders) < d


def test_commuting_resolution_at_d64_factors_only_its_solved_blocks(monkeypatch):
    # H merges two pairs of joint tuples into blocks of order 2 that are not free (62 H-blocks).  The
    # split takes them apart: the frame has 64 free blocks of order 1, so the one group `_certify`
    # gets is empty, and no d²×d² matrix is written.
    es = generate_commuting_resolution(64, 64, 3)
    w = _element_eigenvalues(es)
    assert np.count_nonzero(np.diff(w) > tol.ELEMENT_GAP * np.abs(w).max()) + 1 == 62
    frame = _commutant_frame(es)
    assert frame.free.all() and np.bincount(frame.label).tolist() == [1] * 64
    assert _certify_calls(es, monkeypatch) == [0]


def _hand_frame(theta, radii, sizes, dust=0.0):
    """Diagonal effects r·cos θ, r·sin θ on a hand-made H-block partition, dust on entries (0, d-1), (d-1, 0) of Ẽ₁.

    A block of order 1 is free; a larger one solves to its diagonal coordinates, which span the
    commutant there when its tuples differ.  The certificate holds in any frame, not only the one
    `commutant` builds.
    """
    t = np.asarray(theta)
    es = build_effect_set([np.diag(radii * np.cos(t)), np.diag(radii * np.sin(t))])
    label = np.repeat(np.arange(len(sizes)), sizes)
    free = np.array(sizes) == 1
    ets = np.array(es.matrices)
    ets[0, 0, -1] = ets[0, -1, 0] = dust
    lam = np.add.reduceat(ets.diagonal(0, 1, 2).real, np.cumsum([0] + sizes[:-1]), axis=1) / sizes
    solved = (label[:, None] == label) & ~free[label, None]
    diagonal = np.flatnonzero(np.eye(len(t), dtype=bool)[solved])
    y = np.zeros((np.count_nonzero(solved), diagonal.size))
    y[diagonal, np.arange(diagonal.size)] = 1.0
    frame = operation._Frame(np.eye(len(t)), ets, label, free, lam, 1.0)
    frame.__dict__["y"] = y  # the kernel of this partition, in place of its solve
    return es, frame


@pytest.mark.parametrize(
    "order,sizes",
    [([0, 1, 2, 3], [1, 1, 1, 1]), ([0, 2, 1, 3], [2, 1, 1]), ([0, 2, 1, 3], [2, 2]), ([0, 1, 2, 3], [2, 1, 1])],
    ids=["free-free", "free-solved", "solved-solved", "within-solved"],
)
def test_block_pairs_refuse_two_close_tuples(order, sizes):
    # Two joint tuples 1e-7 apart have g = 1 - 5e-15 < 1 - τ on their pair, wherever the partition
    # puts it: two free blocks, a free block beside a solved one, two solved blocks, or inside one
    # solved block.  Each must refuse, and the same partition with the tuples 0.1 apart certifies.
    for gap, certified in ((1e-7, False), (0.1, True)):
        es, frame = _hand_frame(np.array([0.3, 0.3 + gap, 0.9, 1.3])[order], np.ones(4), sizes)
        on, v = operation._target(es, frame)
        assert operation._certify_blocks(es, frame, on, v, _floor(4), 1e-15) is certified


def test_block_pairs_keep_delta_and_the_unkept_blocks():
    # The dust t gives δ = 2·√2·t·‖E₁‖ ≤ τ: a pair margin of τ + r + δ/2 must refuse, and τ + r + 2δ
    # certifies.  A free block with g = 1 - 2e-9 lies outside a "3.2" target (CLUSTER = 1e-9); under
    # τ = 1e-8 (the certificate takes any τ) its own pair must refuse.
    tau, r, t = 1e-10, 1e-12, 1e-11
    delta = 2 * np.sqrt(2) * t * np.cos(0.3)
    for margin, certified in ((tau + r + delta / 2, False), (tau + r + 2 * delta, True)):
        theta = [0.3, 0.3 + 2 * np.arcsin(np.sqrt(margin / 2)), 0.9, 1.3]
        es, frame = _hand_frame(theta, np.ones(4), [1, 1, 1, 1], dust=t)
        on, v = operation._target(es, frame)
        assert operation._certify_blocks(es, frame, on, v, tau, r) is certified
    es, frame = _hand_frame([0.3, 0.9, 1.2, 1.3], np.sqrt([1.0, 1.0, 1.0, 1.0 - 2e-9]), [1, 1, 1, 1])
    on, v = operation._target(es, frame)
    assert np.count_nonzero(on) == 3
    assert operation._certify_blocks(es, frame, on, v, tau, r)
    assert not operation._certify_blocks(es, frame, on, v, 1e-8, r)


def test_block_pairs_keep_the_rounding_of_the_gram_entries():
    # g₀₁ = cos(10⁻³) is a sum of n = 2 products, so the cut keeps 2·n·ε·max gₐₐ ≈ 8.9e-16 below
    # it: a cut 4e-16 above the computed g₀₁ must refuse, one 2e-15 above it certifies.
    es, frame = _hand_frame([0.3, 0.301, 0.9, 1.3], np.ones(4), [1, 1, 1, 1])
    on, v = operation._target(es, frame)
    g = frame.lam[:, 0] @ frame.lam[:, 1]
    for gap, certified in ((4e-16, False), (2e-15, True)):
        assert operation._certify_blocks(es, frame, on, v, (1.0 - g) - gap, 0.0) is certified


def test_verify_of_a_commuting_resolution_stays_below_the_size_of_r():
    # The block-pair route writes no d²×d² matrix: the peak stays below 8·d⁴ bytes, R̃ alone.
    es = generate_commuting_resolution(32, 8, 32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_resolution_fixed_points(es)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verdict and rep.target_dim == 32
    assert peak < 8 * 32**4


@pytest.mark.parametrize(
    "name,fixed_dim",
    [
        ("near-commuting-10", 1),
        ("near-commuting-11", 1),
        ("near-commuting-12", None),
        ("chord-diagonal-11", 4),
        ("chord-rotated-12", 4),
        ("unit-deficit-diagonal-1e-10", 3),
        ("unit-deficit-diagonal-5e-10", 3),
        ("unit-deficit-rotated-1e-10", 3),
        ("unit-deficit-rotated-5e-10", 3),
    ],
)
def test_analyze_where_the_relative_cut_miscounted(name, fixed_dim, tmp_path, capsys):
    # The relative NULLSPACE cut on |1 - w| counted 4, 6 and 2 here, and 4 with exit 0 at δ = 1e-6.
    code, out, err = _run("analyze", AGREEMENT_SETS[name], tmp_path / "set.json", capsys)
    if fixed_dim is None:
        assert code == 3 and "Undecided" in err
    else:
        assert (code, json.loads(out)["fixed_dim"]) == (0, fixed_dim)
