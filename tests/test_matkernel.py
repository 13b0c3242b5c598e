import numpy as np
import pytest

from lueders import matkernel as mk
from lueders.errors import DimensionMismatch, NotHermitian, NotSquare


def _rand_hermitian(d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_eigendecompose_identity():
    w, u = mk.hermitian_eigendecompose(np.eye(3))
    assert np.abs(w - 1.0).max() < 1e-14
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-14


def test_eigendecompose_diagonal_orders_ascending():
    w, _ = mk.hermitian_eigendecompose(np.diag([0.75, 0.25]))
    assert np.abs(w - [0.25, 0.75]).max() < 1e-14


@pytest.mark.parametrize("seed", range(25))
def test_eigendecompose_reconstructs(seed):
    h = _rand_hermitian(6, seed)
    w, u = mk.hermitian_eigendecompose(h)
    rebuilt = (u * w) @ u.conj().T
    assert np.linalg.norm(rebuilt - h) < 1e-10 * np.linalg.norm(h)
    unitary_defect = u.conj().T @ u - np.eye(6)
    assert np.abs(unitary_defect).max() < 1e-12


def test_eigendecompose_rejects_nonsquare():
    with pytest.raises(NotSquare):
        mk.hermitian_eigendecompose(np.zeros((2, 3)))


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        mk.hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecompose_lets_lapack_errors_through(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        mk.hermitian_eigendecompose(np.eye(3))


def test_operator_norm_examples():
    assert mk.operator_norm(np.zeros((3, 3))) == 0.0
    assert abs(mk.operator_norm(np.diag([0.3, 0.8])) - 0.8) < 1e-14
    assert abs(mk.operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) < 1e-14


def test_nullspace_of_singular_diagonal():
    basis = mk.nullspace(np.diag([1.0, 0.0]))
    assert basis.shape == (2, 1)
    proj = basis @ basis.conj().T
    assert np.abs(proj - np.diag([0.0, 1.0])).max() < 1e-12


def test_nullspace_of_invertible_is_empty():
    basis = mk.nullspace(_rand_hermitian(3, 5) + 10 * np.eye(3))
    assert basis.shape == (3, 0)


def test_nullspace_rank_deficient_product():
    # rank 5 by construction, so the kernel has dimension 3
    rng = np.random.Generator(np.random.Philox(42))
    a = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
    basis = mk.nullspace(a)
    assert basis.shape == (8, 3)
    assert np.abs(a @ basis).max() < 1e-8
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_nullspace_of_zero_and_dust_is_everything():
    assert mk.nullspace(np.zeros((4, 4))).shape == (4, 4)
    dust = 1e-15 * _rand_hermitian(4, 9)
    assert mk.nullspace(dust).shape == (4, 4)


def test_vec_convention_is_column_stacking():
    rng = np.random.Generator(np.random.Philox(7))
    a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    lhs = mk.vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ mk.vec(x)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(mk.unvec(mk.vec(x), 3) - x).max() == 0.0


def test_orthonormalize_drops_dependent_vectors():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    basis = mk.orthonormalize([e11, e22, e11 + e22, 2 * e11])
    assert len(basis) == 2
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(a, b) - want) < 1e-12


def _span(d, mats):
    """The subspace spanned by HS-orthonormal d×d matrices."""
    return mk.OperatorSubspace(d, np.column_stack([mk.vec(b) for b in mats]).astype(complex))


def test_subspaces_equal_reports_distance():
    e11 = _span(2, [np.diag([1.0, 0.0])])
    e22 = _span(2, [np.diag([0.0, 1.0])])
    same = mk.subspaces_equal(e11, e11)
    assert same.equal and same.distance == 0.0
    crossed = mk.subspaces_equal(e11, e22)
    assert not crossed.equal
    assert abs(crossed.distance - np.sqrt(2)) < 1e-12


def test_subspaces_equal_is_basis_independent():
    rng = np.random.Generator(np.random.Philox(13))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    left = _span(3, mk.orthonormalize([a, b]))
    mixed = _span(3, mk.orthonormalize([a + 2 * b, 1j * a - b]))
    cmp = mk.subspaces_equal(left, mixed)
    assert cmp.equal and cmp.distance < 1e-12


def test_subspaces_equal_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mk.subspaces_equal(mk.OperatorSubspace(2, np.zeros((4, 0))), mk.OperatorSubspace(3, np.zeros((9, 0))))


def test_scaled_puts_each_largest_part_in_half_to_one_and_ldexp_restores_the_bits():
    # 5e-324 needs e = -1073, where the factor 2¹⁰⁷³ itself would overflow; 1.7e308 needs e = 1024.
    mats = [np.zeros((2, 2), complex), np.array([[0, 5e-324j], [0, 0]]), np.array([[1.0, -1.7e308], [0, 0.5j]])]
    stack = np.stack(mats)
    scaled, e = mk._scaled(stack)
    assert e.tolist() == [0, -1073, 1024]
    alone = [mk._scaled(a) for a in mats]
    assert [type(k) for _, k in alone] == [int] * 3 and [k for _, k in alone] == e.tolist()
    for a, s, k, (s1, _) in zip(mats, scaled, e, alone):
        assert s.tobytes() == s1.tobytes()
        big = np.abs(s.view(float)).max()
        assert big == 0.0 if not a.any() else 0.5 <= big < 1
        assert np.ldexp(s.view(float), k).tobytes() == a.view(float).tobytes()
