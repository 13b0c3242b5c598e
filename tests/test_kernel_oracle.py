"""The factorized kernels against a dense full-SVD / lstsq reference.

`nullspace` takes one SVD of a QR-reduced matrix, `fixed_point_space` one
real symmetric ``eigh`` of Φ in an orthonormal basis of the Hermitian
matrices (Φ(X)† = Φ(X†) for Hermitian effects, so that real d²×d² matrix has
the eigenvalues of the complex superoperator S = Σ Eᵢᵀ⊗Eᵢ, and Fix(Φ) is the
complex span of its Hermitian fixed points), `commutant` a QR + SVD
restricted to the eigenblocks of one random element H = Σ cᵢEᵢ, `nagy_solve`
conjugate gradients on Φ applied to d×d matrices, `subspaces_equal` two
residuals of d²×k column bases, `orthonormalize` one thin SVD and
`channel_norm` one batched draw, Φ and SVD over all its probes.  The
references below are the direct routes they replaced: a full SVD of the
unreduced matrix for every kernel (for the fixed points, of the complex
S - I; for the commutant, of the dense (n·d²)×d² commutator stack),
``lstsq`` on the dense superoperator for the Φ(X) + X = I system, the d²×d²
projectors VV† for subspace distances, modified Gram-Schmidt for orthonormal
bases and a per-probe loop for the channel norm.  They live here, not in the
package (which keeps only `LuedersOperation.superoperator` to build S), so
they stay independent oracles.  The fixed-point target of a non-commuting
subnormalized set is checked against one stacked kernel built from the
projector P onto the unit eigenspace of F = Σ Eᵢ², which the package never
forms (it cuts (I - F)X = 0 on the commutant).
"""

import json

import numpy as np
import pytest

from lueders import matkernel as mk
from lueders.cli import main
from lueders.effects import (
    Normalization,
    build_effect_set,
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from lueders.errors import LuedersError
from lueders.operation import (
    ChannelNormCertificate,
    LuedersOperation,
    channel_norm,
    commutant,
    fixed_point_space,
    nagy_solve,
    verify_resolution_fixed_points,
    verify_subnormalized_fixed_points,
)
from lueders.rng import philox_generator
from lueders.serialize import dump_effect_set
from lueders.suite import QUICK, _noncommuting_pool, _resolution_pool, _subnormalized_pool, run_criterion

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
    "rows,cols,rank",
    [(12, 5, 5), (12, 5, 3), (40, 9, 4), (5, 12, 5), (5, 12, 2), (7, 7, 7), (7, 7, 6), (1, 6, 1), (6, 1, 1)],
)
def test_nullspace_matches_reference(rows, cols, rank):
    a = _rand(rows, rank, rows * cols + rank) @ _rand(rank, cols, rows + cols + rank)
    got = mk.nullspace(a)
    _assert_same_kernel(got, _reference_nullspace(a))
    assert got.shape[1] == cols - rank


@pytest.mark.parametrize("rows,cols", [(4, 4), (9, 3), (3, 9)])
def test_nullspace_zero_and_dust_match_reference(rows, cols):
    for a in (np.zeros((rows, cols)), 1e-15 * _rand(rows, cols, rows + cols)):
        got = mk.nullspace(a)
        assert np.array_equal(got, np.eye(cols))
        assert np.array_equal(got, _reference_nullspace(a))


@pytest.mark.parametrize("name", sorted(EFFECT_SETS))
def test_fixed_point_space_matches_reference(name):
    op = LuedersOperation(EFFECT_SETS[name])
    d = op.dim
    want = _reference_nullspace(op.superoperator - np.eye(d * d))
    _assert_same_kernel(fixed_point_space(op).vectors, want)


def _assert_fixed_points_match_superoperator(es):
    """`fixed_point_space` against the kernel of the Hermitian part of S - I, by one full SVD.

    The Hermitian part ½(S + S†) is the superoperator of the Hermitian parts
    (Eᵢ + Eᵢ†)/2 up to Σ Nᵢᵀ⊗Nᵢ, Nᵢ the non-Hermitian parts, and S itself for
    Hermitian effects.  Rounding of size ε moves a kept eigenspace by about
    ε/gap (Davis & Kahan), gap the smallest singular value beyond the cut, so
    no two routes can agree closer than that; with a clear gap they agree to
    1e-12.  The returned basis matrices must be Hermitian.
    """
    d = es.dim
    s = LuedersOperation(es).superoperator
    h = (s + s.conj().T) / 2 - np.eye(d * d)
    want = _reference_nullspace(h)
    got = fixed_point_space(LuedersOperation(es)).vectors
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
    """The effects plus anti-Hermitian Nᵢ with ‖Eᵢ' - Eᵢ'†‖_F = share·HERMITIAN·‖Eᵢ‖_F, just under the check."""
    mats = []
    for i, e in enumerate(es.matrices):
        g = _rand(es.dim, es.dim, seed + i)
        n = (g - g.conj().T) / 2
        mats.append(e + n * (share * 1e-10 * np.linalg.norm(e) / (2 * np.linalg.norm(n))))
    out = build_effect_set(mats)
    assert all(mk.hermitian_defect(e) > 0.9e-10 * np.linalg.norm(e) for e in out.matrices)
    return out


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
    _assert_fixed_points_match_superoperator(_with_non_hermitian_part(EFFECT_SETS[name], seed=len(name)))


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
    assert fixed_point_space(LuedersOperation(es)).dim == dim
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
    op = LuedersOperation(NAGY_SETS[name])
    d = op.dim
    x_vec, *_ = np.linalg.lstsq(op.superoperator + np.eye(d * d), mk.vec(np.eye(d)), rcond=None)
    sol = nagy_solve(op)
    assert np.linalg.norm(sol.solution - mk.unvec(x_vec, d)) <= 1e-12
    assert sol.residual <= 1e-12


def test_nagy_solve_at_the_generator_cap():
    # d = 64, n = 64: the superoperator alone would be 268 MB.  X commutes with
    # the commuting effects, so Φ(X) = XF and X = (I + F)⁻¹.
    es = generate_commuting_subnormalized(64, 64, 11, 0.5)
    sol = nagy_solve(LuedersOperation(es))
    assert np.linalg.norm(sol.solution - np.linalg.inv(np.eye(64) + es.sum_of_squares)) <= 1e-12
    assert sol.residual <= 1e-12
    assert sol.is_effect


def test_nagy_solve_of_the_zero_effect():
    # Φ = 0: the first step lands on X = I with a residual of exactly 0.
    sol = nagy_solve(LuedersOperation(build_effect_set([np.zeros((3, 3))])))
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


def test_subspaces_equal_matches_projector_oracle_on_verifier_pairs(monkeypatch):
    pairs = []
    compare = mk.subspaces_equal

    def record(s1, s2):
        pairs.append((s1, s2))
        return compare(s1, s2)

    monkeypatch.setattr(mk, "subspaces_equal", record)
    for es in _resolution_pool(QUICK) + _noncommuting_pool(QUICK):
        assert verify_resolution_fixed_points(es).verdict
    for _, es in _subnormalized_pool(QUICK):
        assert verify_subnormalized_fixed_points(es).verdict
    assert len(pairs) == 51
    for s1, s2 in pairs:
        got = compare(s1, s2).distance
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
    _assert_same_kernel(fixed_point_space(LuedersOperation(es)).vectors, want)
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


DEGENERATE_ELEMENT_SETS = {name: (es, dim) for name, es, dim in _degenerate_element_sets()}
COMMUTANT_SETS = {
    **EFFECT_SETS,
    "cr-d16-n3": generate_commuting_resolution(16, 3, 56),
    "cs-d16-n3": generate_commuting_subnormalized(16, 3, 56, 0.5),
    "nc-d16-n3": generate_noncommuting_resolution(16, 3, 56),
    **{name: es for name, (es, _) in DEGENERATE_ELEMENT_SETS.items()},
}


@pytest.mark.parametrize("name", sorted(COMMUTANT_SETS))
def test_commutant_matches_reference(name):
    es = COMMUTANT_SETS[name]
    want = _dense_commutant(es)
    if name in DEGENERATE_ELEMENT_SETS:
        assert want.shape[1] == DEGENERATE_ELEMENT_SETS[name][1]
    _assert_same_kernel(commutant(es).vectors, want)


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
    return [e1, e2, mk.sqrt_psd(np.eye(d) - e1 @ e1 - e2 @ e2)]


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the Fix rank cut gives verdict false on these resolutions")
def test_verify_near_commuting_resolutions():
    # The δ-sweep δ = 1e-3 … 1e-9 at the verifier: every set is a valid
    # resolution, so each δ must give verdict true or a typed error.  Today
    # δ ≥ 3.2e-5 gives dims 1/1 at distance 1.9e-8 to 8.4e-6, and δ ≤ 1e-5
    # dims 4/1 at distance 1.73.
    wrong = []
    for k in range(6, 19):
        delta = 10.0 ** (-k / 2)
        try:
            rep = verify_resolution_fixed_points(build_effect_set(_near_commuting(delta, seed=k)))
        except LuedersError:
            continue
        if not rep.verdict:
            wrong.append((delta, rep.fixed_dim, rep.target_dim, rep.distance))
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
    assert fixed_point_space(LuedersOperation(es)).dim == 0


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
    assert channel_norm(LuedersOperation(es), probes, seed=d + probes) == want


def test_c5_probe_excess_matches_per_probe_loop():
    sets = (
        list(_resolution_pool(QUICK))
        + [es for _, es in _subnormalized_pool(QUICK)]
        + list(_noncommuting_pool(QUICK))
    )
    certs = [_reference_channel_norm(es, QUICK.norm_probes, 7000 + i) for i, es in enumerate(sets)]
    want = max(c.max_probe_image_norm - c.value for c in certs)
    assert run_criterion("C5", QUICK).details["max_probe_excess"] == want
