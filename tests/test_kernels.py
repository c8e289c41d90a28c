"""Tests for the matrix decomposition and generalized-inverse kernels.

A matrix a is the tensor ``Tensor3(a[None])`` with p = 1: the real cases
run the tensor ops on it, and the complex ones the stack kernels on the
stack of one, ``a[None]``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    DefectiveBlock,
    DimensionError,
    GroupInverseNotExist,
    MathError,
    Tensor3,
    gen,
    idempotent_factorization,
    t_drazin,
    t_group,
    t_index,
    t_jordan,
    t_pinv,
    t_schur,
    t_svd,
    transpose,
)
from tprod.kernels import (
    drazin_stack,
    hermitian_stack,
    jordan_stack,
    pinv_from_svd,
    rank_cutoff,
    rank_normal_factors,
    schur_stack,
    sigma_matrices,
    singular_values,
    svd_reduced,
    svd_stack,
)

from conftest import (
    drazin_of_one,
    group_of_one,
    matrix_cutoff,
    max_abs,
    pinv_of_one,
)


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


def on_one(kernel, a):
    """The results of a stack kernel on the stack of one, a[None]."""
    return tuple(x[0] for x in kernel(np.asarray(a)[None]))


def svd_product(u, sigma, v):
    return u @ sigma_matrices(sigma, len(u), len(v)).astype(u.dtype) @ v.conj().T


def of_one(a):
    """The tensor of p = 1 whose one slice is the matrix a."""
    return Tensor3(np.asarray(a)[None])


def rank_normal_of_one(a):
    """(u, e, v), a = u @ e @ v with e = [[I_r, 0], [0, 0]] at a's own
    cutoff, from rank_normal_factors on the stack of one."""
    u, sigma, v = svd_stack(a[None])
    factors = rank_normal_factors(u, sigma, v, rank_cutoff(sigma, (*a.shape, 1)))
    return tuple(f[0] for f in factors)


def rank_of(e):
    return int(np.count_nonzero(e))


class TestSvd:
    def test_i_times_identity(self):
        u, sigma, v = on_one(svd_stack, 1j * np.eye(2))
        np.testing.assert_allclose(sigma, [1.0, 1.0], atol=1e-14)
        assert max_abs(u @ v.conj().T - 1j * np.eye(2)) <= 1e-14

    def test_zero_matrix(self):
        u, sigma, v = on_one(svd_stack, np.zeros((3, 2)))
        np.testing.assert_array_equal(sigma, [0.0, 0.0])
        np.testing.assert_array_equal(u, np.eye(3))
        np.testing.assert_array_equal(v, np.eye(2))

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = random_complex(rng, 4, 4)
            u, sigma, v = on_one(svd_stack, a)
            assert max_abs(svd_product(u, sigma, v) - a) <= 1e-12
            assert max_abs(u.conj().T @ u - np.eye(4)) <= 1e-11
            assert max_abs(v.conj().T @ v - np.eye(4)) <= 1e-11
            assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)

    def test_rectangular_full_factors(self):
        rng = np.random.default_rng(1)
        for m, n in [(3, 5), (5, 3), (1, 4)]:
            a = rng.uniform(-1, 1, (m, n))
            u, sigma, v = on_one(svd_stack, a)
            assert u.shape == (m, m) and v.shape == (n, n)
            assert max_abs(svd_product(u, sigma, v) - a) <= 1e-12

    def test_real_input_real_factors(self):
        a = np.random.default_rng(2).uniform(-1, 1, (4, 4))
        u, _, v = on_one(svd_stack, a)
        assert not np.iscomplexobj(u) and not np.iscomplexobj(v)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 4)
        u1, _, v1 = on_one(svd_stack, a)
        u2, _, v2 = on_one(svd_stack, a.copy())
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)
        # largest-magnitude entry of each left singular vector is real positive
        for j in range(4):
            pivot = u1[np.argmax(np.abs(u1[:, j])), j]
            assert abs(pivot.imag) <= 1e-14 and pivot.real > 0

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_complex(rng, 4, 4)
            lhs = svd_product(*on_one(svd_stack, np.conj(a)))
            rhs = np.conj(svd_product(*on_one(svd_stack, a)))
            assert max_abs(lhs - rhs) <= 1e-9 * max_abs(a)


class TestSchur:
    def test_triangular_input_untouched(self):
        a = np.array([[1.0, 5.0, 2.0], [0, 2, 7], [0, 0, 3]])
        dec = t_schur(of_one(a))
        assert max_abs(dec.u.array[0] - np.eye(3)) <= 1e-12
        assert max_abs(dec.t.array[0] - a) <= 1e-12
        assert dec.realized_partition == (1, 1, 1)

    def test_rotation_single_block(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = t_schur(of_one(a))
        u, t = dec.u.array[0], dec.t.array[0]
        assert dec.realized_partition == (2,)
        assert_same_multiset(char_poly_roots(a), [1j, -1j], 1e-12)
        assert max_abs(u @ t @ u.T - a) <= 1e-12

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
        dec = t_schur(of_one(a))
        u, t = dec.u.array[0], dec.t.array[0]
        assert dec.realized_partition == (1, 1, 2, 2)
        assert max_abs(u @ t @ u.T - a) <= 1e-11
        eigs_t = []
        pos = 0
        for size in dec.realized_partition:
            block = t[pos:pos + size, pos:pos + size]
            eigs_t.extend(np.atleast_1d(char_poly_roots(block)))
            pos += size
        assert_same_multiset(eigs_t, char_poly_roots(a), 1e-10)

    def test_complex_variant(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 5, 5)
        u, t = on_one(schur_stack, a)
        assert max_abs(np.tril(t, -1)) <= 1e-11
        assert max_abs(u @ t @ u.conj().T - a) <= 1e-11
        assert_same_multiset(np.diag(t), char_poly_roots(a), 1e-9)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            t_schur(of_one(np.zeros((2, 3))))

    def test_stack_of_one_matches_matrix_functions(self):
        rng = np.random.default_rng(7)
        for n in range(1, 6):
            a = rng.uniform(-1, 1, (n, n))
            # a 1 x 1 matrix is symmetric, so t_schur takes the Hermitian route
            u, t = (hermitian_stack if n == 1 else schur_stack)(a[None])
            dec = t_schur(of_one(a))
            assert np.array_equal(dec.u.array, u) and np.array_equal(dec.t.array, t)
            # 1x1 blocks first, one 2x2 block per nonzero subdiagonal entry
            pairs = np.count_nonzero(np.diag(t[0], -1))
            assert dec.realized_partition == (1,) * (n - 2 * pairs) + (2,) * pairs


class TestJordan:
    def test_rotation_complex_form(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        p, j = on_one(jordan_stack, a)
        np.testing.assert_allclose(j, np.diag([-1j, 1j]), atol=1e-12)
        assert max_abs(p @ j @ np.linalg.inv(p) - [[0, -1], [1, 0]]) <= 1e-12

    def test_rotation_real_form(self):
        dec = t_jordan(of_one(np.array([[0.0, -1.0], [1.0, 0.0]])))
        p, j = dec.p.array[0], dec.j.array[0]
        np.testing.assert_allclose(j, [[0, 1], [-1, 0]], atol=1e-12)
        assert dec.realized_partition == (2,)
        assert not np.iscomplexobj(p) and not np.iscomplexobj(j)
        assert max_abs(p @ j @ np.linalg.inv(p) - [[0, -1], [1, 0]]) <= 1e-12

    def test_complex_pair_eigenvalues(self):
        a = np.array([[2.0, -3.0], [1.0, 0.0]])
        p, j = on_one(jordan_stack, a.astype(complex))
        assert_same_multiset(
            np.diag(j), [1 + np.sqrt(2) * 1j, 1 - np.sqrt(2) * 1j], 1e-12
        )
        assert max_abs(p @ j @ np.linalg.inv(p) - a) <= 1e-12

    def test_real_form_orders_real_eigenvalues_first(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.uniform(-1, 1, (4, 4)))[0]
        core = np.zeros((4, 4))
        core[0, 0] = 2.0
        core[1:3, 1:3] = [[0, 1], [-1, 0]]
        core[3, 3] = -1.0
        a = q @ core @ q.T
        dec = t_jordan(of_one(a))
        p, j = dec.p.array[0], dec.j.array[0]
        assert dec.realized_partition == (1, 1, 2)
        np.testing.assert_allclose(j[0, 0], -1.0, atol=1e-10)
        np.testing.assert_allclose(j[1, 1], 2.0, atol=1e-10)
        np.testing.assert_allclose(j[2:, 2:], [[0, 1], [-1, 0]], atol=1e-10)
        assert max_abs(p @ j @ np.linalg.inv(p) - a) <= 1e-8

    def test_diagonal_input_sorted_permutation(self):
        p, j = on_one(jordan_stack, np.diag([3.0, -1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(np.diag(j), [-1, 2, 3], atol=1e-14)
        assert max_abs(np.abs(p) - np.eye(3)[:, [1, 2, 0]]) <= 1e-14

    def test_defective_matrix_rejected(self):
        with pytest.raises(DefectiveBlock):
            on_one(jordan_stack, np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(DefectiveBlock):
            t_jordan(of_one(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_repeated_diagonalizable_ok(self):
        _, j = on_one(jordan_stack, np.eye(3, dtype=complex))
        np.testing.assert_allclose(j, np.eye(3), atol=1e-14)


class TestRankNormalForm:
    def test_identity(self):
        _, e, _ = rank_normal_of_one(np.eye(3))
        assert rank_of(e) == 3
        np.testing.assert_allclose(e, np.eye(3))

    def test_zero(self):
        _, e, _ = rank_normal_of_one(np.zeros((2, 2)))
        assert rank_of(e) == 0
        np.testing.assert_array_equal(e, np.zeros((2, 2)))

    def test_seeded_rank_two(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 2)) @ rng.uniform(-1, 1, (2, 4))
            u, e, v = rank_normal_of_one(a)
            assert rank_of(e) == 2
            lhs = np.linalg.inv(u) @ a @ np.linalg.inv(v)
            assert max_abs(lhs - e) <= 1e-11 * max(1, max_abs(a))

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 3, 3)
        u, e, v = rank_normal_of_one(a)
        assert max_abs(u @ e @ v - a) <= 1e-12


class TestMpInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            t_pinv(of_one(np.diag([2.0, 0.0]))).array[0], np.diag([0.5, 0.0]),
            atol=1e-15
        )

    def test_penrose_equations(self):
        rng = np.random.default_rng(10)
        for m, n in [(4, 4), (3, 5), (5, 3)]:
            for _ in range(10):
                a = random_complex(rng, m, n)
                x = pinv_of_one(a, matrix_cutoff(a))
                s = max(1.0, max_abs(a))
                assert max_abs(a @ x @ a - a) <= 1e-10 * s
                assert max_abs(x @ a @ x - x) <= 1e-10 * s
                assert max_abs((a @ x).conj().T - a @ x) <= 1e-10 * s
                assert max_abs((x @ a).conj().T - x @ a) <= 1e-10 * s

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_complex(rng, 3, 4)
            cutoff = matrix_cutoff(a)
            assert max_abs(
                pinv_of_one(np.conj(a), cutoff) - np.conj(pinv_of_one(a, cutoff))
            ) <= 1e-9 * max_abs(a)

    # 1/sigma overflows below about 5.6e-309; pinv_from_svd keeps numpy
    # quiet, and the op refuses the non-finite block it leaves
    @pytest.mark.parametrize("e", [-1040, -1060])
    def test_overflow_is_refused_without_warning(self, e):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MathError, match="overflow"):
                t_pinv(of_one(np.array([[2.0**e]])))


class TestDrazin:
    def test_nilpotent(self):
        res = t_drazin(of_one(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert res.index == 2
        np.testing.assert_array_equal(res.ad.array[0], np.zeros((2, 2)))

    def test_invertible_is_plain_inverse(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (4, 4)) + 3 * np.eye(4)
        res = t_drazin(of_one(a))
        assert res.index == 0
        np.testing.assert_array_equal(res.ad.array[0], np.linalg.inv(a))

    def test_block_diagonal_oracle(self):
        rng = np.random.default_rng(13)
        a1 = rng.uniform(-1, 1, (3, 3))
        a2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        big = np.block([
            [a1, np.zeros((3, 2))],
            [np.zeros((2, 3)), a2],
        ])
        r_big, r1, r2 = (t_drazin(of_one(x)) for x in (big, a1, a2))
        expected = np.block([
            [r1.ad.array[0], np.zeros((3, 2))],
            [np.zeros((2, 3)), r2.ad.array[0]],
        ])
        assert r_big.index == max(r1.index, r2.index)
        assert max_abs(r_big.ad.array[0] - expected) <= 1e-10

    def test_drazin_identities(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            # singular but not nilpotent: rank-2 projector-like core; its
            # Drazin inverse can be large, so the allowances scale with it
            a = rng.uniform(-1, 1, (4, 2)) @ rng.uniform(-1, 1, (2, 4))
            res = t_drazin(of_one(a))
            ad, k = res.ad.array[0], res.index
            s = (1 + max_abs(a)) ** (k + 1) * (1 + max_abs(ad)) ** 2
            ak = np.linalg.matrix_power(a, k)
            assert max_abs(np.linalg.matrix_power(a, k + 1) @ ad - ak) <= 1e-12 * s
            assert max_abs(ad @ a @ ad - ad) <= 1e-12 * s
            assert max_abs(a @ ad - ad @ a) <= 1e-12 * s

    def test_matrix_index(self):
        assert t_index(of_one(np.eye(3))) == 0
        assert t_index(of_one(np.array([[0.0, 1.0], [0.0, 0.0]]))) == 2
        assert t_index(of_one(np.zeros((2, 2)))) == 1


class TestGroupInverse:
    def test_nilpotent_rejected(self):
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(of_one(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert excinfo.value.rank == 1
        assert excinfo.value.rank_sq == 0

    def test_exists_matches_drazin(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            b = rng.uniform(-1, 1, (4, 2))
            c = rng.uniform(-1, 1, (2, 4))
            a = b @ c  # rank 2, index 1 almost surely
            g = t_group(of_one(a)).array[0]
            res = t_drazin(of_one(a))
            assert res.index <= 1
            assert max_abs(g - res.ad.array[0]) <= 1e-10

    def test_numerical_rank(self):
        for a, rank in ((np.zeros((3, 3)), 0), (np.eye(3), 3)):
            sigma = singular_values(a)
            assert rank_cutoff(sigma, (3, 3, 1)).rank(sigma) == rank


class TestRealKernelsStayReal:
    def test_no_imaginary_storage_on_real_input(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(-1, 1, (4, 4))
        u, t = on_one(schur_stack, a)
        assert not np.iscomplexobj(u) and not np.iscomplexobj(t)
        u, _, v = rank_normal_of_one(a)
        assert not np.iscomplexobj(u) and not np.iscomplexobj(v)
        cutoff = matrix_cutoff(a)
        assert not np.iscomplexobj(pinv_of_one(a, cutoff))
        ad, _ = drazin_of_one(a, cutoff)
        assert not np.iscomplexobj(ad)
        p, j = on_one(jordan_stack, a)
        assert not np.iscomplexobj(p) and not np.iscomplexobj(j)


class TestConjugationEquivariance:
    def test_generalized_inverses(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            cutoff = matrix_cutoff(a)
            scale = 1e-9 * max_abs(a)
            assert max_abs(
                pinv_of_one(np.conj(a), cutoff) - np.conj(pinv_of_one(a, cutoff))
            ) <= scale
            d1, k1 = drazin_of_one(np.conj(a), cutoff)
            d2, k2 = drazin_of_one(a, cutoff)
            assert k1 == k2
            assert max_abs(d1 - np.conj(d2)) <= scale
            assert max_abs(
                group_of_one(np.conj(a), cutoff) - np.conj(group_of_one(a, cutoff))
            ) <= scale

    def test_rank_normal_reassembly(self):
        rng = np.random.default_rng(18)
        a = random_complex(rng, 3, 4)
        u1, e1, v1 = rank_normal_of_one(np.conj(a))
        u2, e2, v2 = rank_normal_of_one(a)
        lhs = u1 @ e1 @ v1
        rhs = np.conj(u2 @ e2 @ v2)
        assert max_abs(lhs - rhs) <= 1e-9 * max_abs(a)


@st.composite
def matrices(draw):
    """A square n x n matrix, n in 1..5, and an m x n one with m != n:
    dense, rank deficient, or with the square one strictly upper
    triangular, which has no group inverse and a defective Jordan form
    from n = 2 on."""
    kind = draw(st.sampled_from(["dense", "rank_deficient", "nilpotent"]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5).filter(lambda m: m != n))
    seed = draw(st.integers(0, 10**6))
    square, rect = (gen(seed, rows, n, 1, "dense" if kind == "nilpotent"
                        else kind).array[0] for rows in (n, m))
    return np.triu(square, 1) if kind == "nilpotent" else square, rect


def assert_equal_bits(tensors, arrays):
    for t, x in zip(tensors, arrays, strict=True):
        assert t.array.dtype == x.dtype and t.array.shape == x.shape
        np.testing.assert_array_equal(t.array, x)


def assert_same_outcome(op, fields, kernel):
    """The ``fields`` of ``op()`` are the arrays of ``kernel()`` bit for
    bit, or op raises the kernel's MathError at block 0."""
    try:
        want = kernel()
    except MathError as exc:
        with pytest.raises(type(exc)) as excinfo:
            op()
        assert str(excinfo.value) == f"Fourier block 0: {exc}"
        return
    result = op()
    assert_equal_bits([getattr(result, f) for f in fields], want)


class TestMatrixIsTheTensorWithPOne:
    """Every op on ``Tensor3(a[None])`` gives the bits of its stack kernel
    on ``a[None]`` at ``rank_cutoff(sigma, (m, n, 1))``: a matrix has no
    kernels of its own."""

    @settings(max_examples=100)
    @given(matrices())
    def test_ops_match_their_stack_kernels(self, pair):
        for a in pair:
            dims = (*a.shape, 1)
            u, sigma, v = svd_stack(a[None])
            dec = t_svd(of_one(a))
            assert_equal_bits([dec.u, dec.s, dec.v],
                              [u, sigma_matrices(sigma, *a.shape), v])
            np.testing.assert_array_equal(dec.fourier_singular_values, sigma)
            vh = np.conj(v.swapaxes(-1, -2))
            svd_route = pinv_from_svd(u, sigma, vh,
                                      rank_cutoff(sigma, dims).at())
            thin = svd_reduced(a[None])
            blocks_route = pinv_from_svd(*thin,
                                         rank_cutoff(thin[1], dims).at())
            assert_equal_bits([t_pinv(of_one(a), route="svd"),
                               t_pinv(of_one(a), route="blocks")],
                              [svd_route, blocks_route])

        a = pair[0]
        t, stack = of_one(a), a[None]
        sigma = singular_values(stack)
        cutoff = rank_cutoff(sigma, (*a.shape, 1))
        ad, index = drazin_stack(stack, cutoff, sigma)
        res = t_drazin(t)
        assert_equal_bits([res.ad], [ad])
        assert res.index == t_index(t) == int(index[0])
        try:
            g = group_of_one(a, cutoff)
        except GroupInverseNotExist as want:
            with pytest.raises(GroupInverseNotExist) as excinfo:
                t_group(t)
            got = excinfo.value
            assert (got.rank, got.rank_sq, got.margin) == (
                want.rank, want.rank_sq, want.margin)
        else:
            assert_equal_bits([t_group(t)], [g[None]])

        # the op takes its cutoff from the singular values of its full SVDs
        u, sigma, v = svd_stack(stack)
        idem = idempotent_factorization(t)
        assert_equal_bits(
            [idem.u, idem.e, idem.v],
            rank_normal_factors(u, sigma, v, rank_cutoff(sigma, (*a.shape, 1))))

        # an exactly t-symmetric tensor takes the Hermitian route
        symmetric = t == transpose(t)
        assert_same_outcome(
            lambda: t_schur(t), ("u", "t"),
            lambda: (hermitian_stack if symmetric else schur_stack)(stack))
        assert_same_outcome(
            lambda: t_jordan(t), ("p", "j"),
            lambda: (hermitian_stack if symmetric else jordan_stack)(stack))
