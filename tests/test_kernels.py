"""Tests for the matrix decomposition and generalized-inverse kernels."""

import numpy as np
import pytest

from tprod import DefectiveBlock, DimensionError, GroupInverseNotExist
from tprod.kernels import (
    drazin_inverse,
    group_inverse,
    jordan_complex,
    jordan_real,
    matrix_index,
    mp_inverse,
    rank_cutoff,
    rank_normal_form,
    schur_complex,
    schur_real_ordered,
    schur_stack,
    singular_values,
    svd,
)

from conftest import max_abs


def char_poly_roots(a):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    Deliberately avoids calling an eigensolver on ``a`` itself, so it can
    serve as an independent oracle for the decomposition kernels.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a, dtype=complex)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return np.roots(coeffs)


def assert_same_multiset(x, y, tol):
    x = list(np.asarray(x, dtype=complex))
    y = list(np.asarray(y, dtype=complex))
    assert len(x) == len(y)
    for value in x:
        best = min(range(len(y)), key=lambda j: abs(y[j] - value))
        assert abs(y[best] - value) <= tol
        del y[best]


def random_complex(rng, m, n):
    return rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))


class TestSvd:
    def test_i_times_identity(self):
        dec = svd(1j * np.eye(2))
        np.testing.assert_allclose(dec.sigma, [1.0, 1.0], atol=1e-14)
        assert max_abs(dec.u @ dec.v.conj().T - 1j * np.eye(2)) <= 1e-14

    def test_zero_matrix(self):
        dec = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(dec.sigma, [0.0, 0.0])
        np.testing.assert_array_equal(dec.u, np.eye(3))
        np.testing.assert_array_equal(dec.v, np.eye(2))

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = random_complex(rng, 4, 4)
            dec = svd(a)
            assert max_abs(dec.reconstruct() - a) <= 1e-12
            assert max_abs(dec.u.conj().T @ dec.u - np.eye(4)) <= 1e-11
            assert max_abs(dec.v.conj().T @ dec.v - np.eye(4)) <= 1e-11
            assert np.all(np.diff(dec.sigma) <= 0) and np.all(dec.sigma >= 0)

    def test_rectangular_full_factors(self):
        rng = np.random.default_rng(1)
        for m, n in [(3, 5), (5, 3), (1, 4)]:
            a = rng.uniform(-1, 1, (m, n))
            dec = svd(a)
            assert dec.u.shape == (m, m) and dec.v.shape == (n, n)
            assert max_abs(dec.reconstruct() - a) <= 1e-12

    def test_real_input_real_factors(self):
        dec = svd(np.random.default_rng(2).uniform(-1, 1, (4, 4)))
        assert not np.iscomplexobj(dec.u) and not np.iscomplexobj(dec.v)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 4)
        d1, d2 = svd(a), svd(a.copy())
        np.testing.assert_array_equal(d1.u, d2.u)
        np.testing.assert_array_equal(d1.v, d2.v)
        # largest-magnitude entry of each left singular vector is real positive
        for j in range(4):
            pivot = d1.u[np.argmax(np.abs(d1.u[:, j])), j]
            assert abs(pivot.imag) <= 1e-14 and pivot.real > 0

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_complex(rng, 4, 4)
            lhs = svd(np.conj(a)).reconstruct()
            rhs = np.conj(svd(a).reconstruct())
            assert max_abs(lhs - rhs) <= 1e-9 * max_abs(a)


class TestSchur:
    def test_triangular_input_untouched(self):
        a = np.array([[1.0, 5.0, 2.0], [0, 2, 7], [0, 0, 3]])
        dec = schur_real_ordered(a)
        assert max_abs(dec.u - np.eye(3)) <= 1e-12
        assert max_abs(dec.t - a) <= 1e-12
        assert dec.partition == (1, 1, 1)

    def test_rotation_single_block(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = schur_real_ordered(a)
        assert dec.partition == (2,)
        assert_same_multiset(char_poly_roots(a), [1j, -1j], 1e-12)
        assert max_abs(dec.reconstruct() - a) <= 1e-12

    def test_mixed_spectrum_ordering(self):
        # two real eigenvalues and two complex pairs
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.uniform(-1, 1, (6, 6)))[0]
        core = np.zeros((6, 6))
        core[0, 0] = -1.5
        core[1, 1] = 0.5
        core[2:4, 2:4] = [[1, 2], [-2, 1]]
        core[4:6, 4:6] = [[-0.5, 0.7], [-0.7, -0.5]]
        a = q @ core @ q.T
        dec = schur_real_ordered(a)
        assert dec.partition == (1, 1, 2, 2)
        assert max_abs(dec.reconstruct() - a) <= 1e-11
        eigs_t = []
        pos = 0
        for size in dec.partition:
            block = dec.t[pos:pos + size, pos:pos + size]
            eigs_t.extend(np.atleast_1d(char_poly_roots(block)))
            pos += size
        assert_same_multiset(eigs_t, char_poly_roots(a), 1e-10)

    def test_complex_variant(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 5, 5)
        dec = schur_complex(a)
        assert dec.partition is None
        assert max_abs(np.tril(dec.t, -1)) <= 1e-11
        assert max_abs(dec.reconstruct() - a) <= 1e-11
        assert_same_multiset(np.diag(dec.t), char_poly_roots(a), 1e-9)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            schur_real_ordered(np.zeros((2, 3)))

    def test_stack_of_one_matches_matrix_functions(self):
        rng = np.random.default_rng(7)
        for n in range(1, 6):
            a = rng.uniform(-1, 1, (n, n))
            u, t = schur_stack(a[None])
            dec = schur_real_ordered(a)
            assert np.array_equal(dec.u, u[0]) and np.array_equal(dec.t, t[0])
            # 1x1 blocks first, one 2x2 block per nonzero subdiagonal entry
            pairs = np.count_nonzero(np.diag(t[0], -1))
            assert dec.partition == (1,) * (n - 2 * pairs) + (2,) * pairs
            z = random_complex(rng, n, n)
            u, t = schur_stack(z[None])
            dec = schur_complex(z)
            assert np.array_equal(dec.u, u[0]) and np.array_equal(dec.t, t[0])
            assert dec.partition is None


class TestJordan:
    def test_rotation_complex_form(self):
        dec = jordan_complex(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.j, np.diag([-1j, 1j]), atol=1e-12)
        assert max_abs(dec.reconstruct() - [[0, -1], [1, 0]]) <= 1e-12

    def test_rotation_real_form(self):
        dec = jordan_real(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.j, [[0, 1], [-1, 0]], atol=1e-12)
        assert dec.partition == (2,)
        assert not np.iscomplexobj(dec.p) and not np.iscomplexobj(dec.j)
        assert max_abs(dec.reconstruct() - [[0, -1], [1, 0]]) <= 1e-12

    def test_complex_pair_eigenvalues(self):
        a = np.array([[2.0, -3.0], [1.0, 0.0]])
        dec = jordan_complex(a)
        assert_same_multiset(
            np.diag(dec.j), [1 + np.sqrt(2) * 1j, 1 - np.sqrt(2) * 1j], 1e-12
        )
        assert max_abs(dec.reconstruct() - a) <= 1e-12

    def test_real_form_orders_real_eigenvalues_first(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.uniform(-1, 1, (4, 4)))[0]
        core = np.zeros((4, 4))
        core[0, 0] = 2.0
        core[1:3, 1:3] = [[0, 1], [-1, 0]]
        core[3, 3] = -1.0
        a = q @ core @ q.T
        dec = jordan_real(a)
        assert dec.partition == (1, 1, 2)
        np.testing.assert_allclose(dec.j[0, 0], -1.0, atol=1e-10)
        np.testing.assert_allclose(dec.j[1, 1], 2.0, atol=1e-10)
        np.testing.assert_allclose(dec.j[2:, 2:], [[0, 1], [-1, 0]], atol=1e-10)
        assert max_abs(dec.reconstruct() - a) <= 1e-8

    def test_diagonal_input_sorted_permutation(self):
        a = np.diag([3.0, -1.0, 2.0])
        dec = jordan_complex(a)
        np.testing.assert_allclose(np.diag(dec.j), [-1, 2, 3], atol=1e-14)
        assert max_abs(np.abs(dec.p) - np.eye(3)[:, [1, 2, 0]]) <= 1e-14

    def test_defective_matrix_rejected(self):
        with pytest.raises(DefectiveBlock):
            jordan_complex(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(DefectiveBlock):
            jordan_real(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_repeated_diagonalizable_ok(self):
        dec = jordan_complex(np.eye(3))
        np.testing.assert_allclose(dec.j, np.eye(3), atol=1e-14)


class TestRankNormalForm:
    def test_identity(self):
        rnf = rank_normal_form(np.eye(3))
        assert rnf.r == 3
        np.testing.assert_allclose(rnf.canonical(), np.eye(3))

    def test_zero(self):
        rnf = rank_normal_form(np.zeros((2, 2)))
        assert rnf.r == 0
        np.testing.assert_array_equal(rnf.canonical(), np.zeros((2, 2)))

    def test_seeded_rank_two(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 2)) @ rng.uniform(-1, 1, (2, 4))
            rnf = rank_normal_form(a)
            assert rnf.r == 2
            lhs = np.linalg.inv(rnf.u) @ a @ np.linalg.inv(rnf.v)
            assert max_abs(lhs - rnf.canonical()) <= 1e-11 * max(1, max_abs(a))

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 3, 3)
        rnf = rank_normal_form(a)
        assert max_abs(rnf.u @ rnf.canonical() @ rnf.v - a) <= 1e-12


class TestMpInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            mp_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15
        )

    def test_penrose_equations(self):
        rng = np.random.default_rng(10)
        for m, n in [(4, 4), (3, 5), (5, 3)]:
            for _ in range(10):
                a = random_complex(rng, m, n)
                x = mp_inverse(a)
                s = max(1.0, max_abs(a))
                assert max_abs(a @ x @ a - a) <= 1e-10 * s
                assert max_abs(x @ a @ x - x) <= 1e-10 * s
                assert max_abs((a @ x).conj().T - a @ x) <= 1e-10 * s
                assert max_abs((x @ a).conj().T - x @ a) <= 1e-10 * s

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_complex(rng, 3, 4)
            assert max_abs(
                mp_inverse(np.conj(a)) - np.conj(mp_inverse(a))
            ) <= 1e-9 * max_abs(a)


class TestDrazin:
    def test_nilpotent(self):
        ad, index = drazin_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert index == 2
        np.testing.assert_array_equal(ad, np.zeros((2, 2)))

    def test_invertible_is_plain_inverse(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (4, 4)) + 3 * np.eye(4)
        ad, index = drazin_inverse(a)
        assert index == 0
        np.testing.assert_array_equal(ad, np.linalg.inv(a))

    def test_block_diagonal_oracle(self):
        rng = np.random.default_rng(13)
        a1 = rng.uniform(-1, 1, (3, 3))
        a2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        big = np.block([
            [a1, np.zeros((3, 2))],
            [np.zeros((2, 3)), a2],
        ])
        d_big, idx_big = drazin_inverse(big)
        d1, idx1 = drazin_inverse(a1)
        d2, idx2 = drazin_inverse(a2)
        expected = np.block([
            [d1, np.zeros((3, 2))],
            [np.zeros((2, 3)), d2],
        ])
        assert idx_big == max(idx1, idx2)
        assert max_abs(d_big - expected) <= 1e-10

    def test_drazin_identities(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            # singular but not nilpotent: rank-2 projector-like core; its
            # Drazin inverse can be large, so the allowances scale with it
            a = rng.uniform(-1, 1, (4, 2)) @ rng.uniform(-1, 1, (2, 4))
            ad, k = drazin_inverse(a)
            s = (1 + max_abs(a)) ** (k + 1) * (1 + max_abs(ad)) ** 2
            ak = np.linalg.matrix_power(a, k)
            assert max_abs(np.linalg.matrix_power(a, k + 1) @ ad - ak) <= 1e-12 * s
            assert max_abs(ad @ a @ ad - ad) <= 1e-12 * s
            assert max_abs(a @ ad - ad @ a) <= 1e-12 * s

    def test_matrix_index(self):
        assert matrix_index(np.eye(3)) == 0
        assert matrix_index(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2
        assert matrix_index(np.zeros((2, 2))) == 1


class TestGroupInverse:
    def test_nilpotent_rejected(self):
        with pytest.raises(GroupInverseNotExist) as excinfo:
            group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert excinfo.value.rank == 1
        assert excinfo.value.rank_sq == 0

    def test_exists_matches_drazin(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            b = rng.uniform(-1, 1, (4, 2))
            c = rng.uniform(-1, 1, (2, 4))
            a = b @ c  # rank 2, index 1 almost surely
            g = group_inverse(a)
            ad, index = drazin_inverse(a)
            assert index <= 1
            assert max_abs(g - ad) <= 1e-10

    def test_numerical_rank(self):
        for a, rank in ((np.zeros((3, 3)), 0), (np.eye(3), 3)):
            sigma = singular_values(a)
            assert rank_cutoff(sigma, (3, 3, 1)).rank(sigma) == rank


class TestRealKernelsStayReal:
    def test_no_imaginary_storage_on_real_input(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(-1, 1, (4, 4))
        dec = schur_real_ordered(a)
        assert not np.iscomplexobj(dec.u) and not np.iscomplexobj(dec.t)
        rnf = rank_normal_form(a)
        assert not np.iscomplexobj(rnf.u) and not np.iscomplexobj(rnf.v)
        assert not np.iscomplexobj(mp_inverse(a))
        ad, _ = drazin_inverse(a)
        assert not np.iscomplexobj(ad)
        jr = jordan_real(a)
        assert not np.iscomplexobj(jr.p) and not np.iscomplexobj(jr.j)


class TestConjugationEquivariance:
    def test_generalized_inverses(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            scale = 1e-9 * max_abs(a)
            assert max_abs(
                mp_inverse(np.conj(a)) - np.conj(mp_inverse(a))
            ) <= scale
            d1, k1 = drazin_inverse(np.conj(a))
            d2, k2 = drazin_inverse(a)
            assert k1 == k2
            assert max_abs(d1 - np.conj(d2)) <= scale
            assert max_abs(
                group_inverse(np.conj(a)) - np.conj(group_inverse(a))
            ) <= scale

    def test_rank_normal_reassembly(self):
        rng = np.random.default_rng(18)
        a = random_complex(rng, 3, 4)
        r1 = rank_normal_form(np.conj(a))
        r2 = rank_normal_form(a)
        lhs = r1.u @ r1.canonical() @ r1.v
        rhs = np.conj(r2.u @ r2.canonical() @ r2.v)
        assert max_abs(lhs - rhs) <= 1e-9 * max_abs(a)
