"""The factorized kernels against a dense full-SVD / lstsq reference.

`nullspace` takes one SVD of a QR-reduced matrix, `fixed_point_space` one
``eigh``, `nagy_solve` one LU solve and `orthonormalize` one thin SVD.  The
references below are the direct routes they replaced: a full SVD of the
unreduced matrix for every kernel, ``lstsq`` for the Φ(X) + X = I system and
modified Gram-Schmidt for orthonormal bases.  They live here, not in the
package, so they stay independent oracles.
"""

import numpy as np
import pytest

from lueders import matkernel as mk
from lueders.effects import (
    generate_commuting_resolution,
    generate_commuting_subnormalized,
    generate_noncommuting_resolution,
)
from lueders.operation import (
    LuedersOperation,
    commutant,
    fixed_point_space,
    nagy_solve,
    unit_spectral_projector,
)

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


def _projector_distance(v1, v2):
    return float(np.linalg.norm(v1 @ v1.conj().T - v2 @ v2.conj().T))


def _columns(sub):
    d2 = sub.dim_hilbert**2
    if not sub.basis:
        return np.zeros((d2, 0), dtype=complex)
    return np.column_stack([mk.vec(b) for b in sub.basis])


def _assert_same_kernel(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got.conj().T @ got - np.eye(got.shape[1])) < 1e-12
    assert _projector_distance(got, want) <= PROJECTOR_TOL


def _rand(rows, cols, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


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
    _assert_same_kernel(_columns(fixed_point_space(op)), want)


@pytest.mark.parametrize("name", sorted(EFFECT_SETS))
def test_commutant_matches_reference(name):
    es = EFFECT_SETS[name]
    d = es.dim
    eye = np.eye(d)
    system = np.vstack([np.kron(e.T, eye) - np.kron(eye, e) for e in es.matrices])
    _assert_same_kernel(_columns(commutant(es)), _reference_nullspace(system))


@pytest.mark.parametrize("name", sorted(EFFECT_SETS))
def test_nagy_solve_matches_reference(name):
    op = LuedersOperation(EFFECT_SETS[name])
    d = op.dim
    x_vec, *_ = np.linalg.lstsq(op.superoperator + np.eye(d * d), mk.vec(np.eye(d)), rcond=None)
    sol = nagy_solve(op)
    assert np.linalg.norm(sol.solution - mk.unvec(x_vec, d)) <= 1e-12
    assert sol.residual <= 1e-12


def _subnormalized_sets():
    for d in (2, 3, 5, 8):
        for n in (1, 2, 3):
            for uf in (0.0, 0.25, 0.5, 1.0):
                seed = 100 * d + 10 * n + int(4 * uf)
                yield f"d{d}-n{n}-uf{uf}", generate_commuting_subnormalized(d, n, seed, uf)


SUBNORMALIZED_SETS = dict(_subnormalized_sets())


@pytest.mark.parametrize("name", sorted(SUBNORMALIZED_SETS))
def test_orthonormalize_matches_gram_schmidt(name):
    # The compressed commutant P·{Eᵢ}′, as the subnormalized verifier builds it.
    es = SUBNORMALIZED_SETS[name]
    p = unit_spectral_projector(es)
    mats = [p @ b for b in commutant(es).basis]
    got = _columns(mk.OperatorSubspace(es.dim, tuple(mk.orthonormalize(mats))))
    want = _columns(mk.OperatorSubspace(es.dim, tuple(_reference_orthonormalize(mats))))
    _assert_same_kernel(got, want)


def test_orthonormalize_of_nothing_and_of_zeros():
    assert mk.orthonormalize([]) == []
    assert mk.orthonormalize([np.zeros((3, 3)), 1e-12 * np.eye(3)]) == []
