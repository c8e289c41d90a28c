"""Tests for the exact (non-Fourier) t-product algebra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    BlockCirculant,
    DimensionError,
    MathError,
    NotBlockCirculant,
    Tensor3,
    add,
    bcirc,
    bcirc_inv,
    fold,
    gen,
    idempotent_factorization,
    is_orthogonal,
    is_t_symmetric,
    power,
    scalar_mul,
    t_drazin,
    t_group,
    t_index,
    t_inverse,
    t_jordan,
    t_jordan_naive,
    t_schur,
    to_fourier,
    tprod,
    transpose,
    unfold,
    unit_regular_witness,
)

from conftest import max_abs


class TestTensor3:
    def test_dims_and_slices(self):
        t = Tensor3(np.arange(24.0).reshape(4, 2, 3))
        assert t.dims == (2, 3, 4)
        np.testing.assert_array_equal(t.slice(1), [[6, 7, 8], [9, 10, 11]])

    def test_constructor_rejects_nan_inf(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Tensor3(data)
        data[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Tensor3(data)

    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            Tensor3(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            Tensor3(np.zeros((0, 2, 2)))

    def test_immutable(self):
        t = Tensor3.zeros(2, 2, 2)
        with pytest.raises(ValueError):
            t.array[0, 0, 0] = 1.0

    def test_identity_layout(self):
        eye = Tensor3.identity(3, 2)
        np.testing.assert_array_equal(eye.slice(0), np.eye(3))
        np.testing.assert_array_equal(eye.slice(1), np.zeros((3, 3)))


class TestUnfoldFold:
    def test_unfold_identity(self):
        eye = Tensor3.identity(2, 2)
        expected = np.vstack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_array_equal(unfold(eye), expected)

    def test_unfold_tube(self):
        t = Tensor3(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1))
        np.testing.assert_array_equal(unfold(t), [[1.0], [2.0], [3.0]])

    def test_fold_trivials(self):
        m = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert fold(m, 2) == Tensor3.identity(2, 2)
        t = fold(np.array([[1.0], [2.0], [3.0]]), 3)
        assert t.dims == (1, 1, 3)
        np.testing.assert_array_equal(t.array.ravel(), [1, 2, 3])

    def test_fold_rejects_indivisible(self):
        with pytest.raises(DimensionError):
            fold(np.zeros((5, 2)), 2)

    def test_round_trips_exact(self):
        for seed in range(50):
            t = gen(seed, 3, 4, 5)
            assert fold(unfold(t), 5) == t
        m = np.random.default_rng(1).uniform(-1, 1, (12, 3))
        np.testing.assert_array_equal(unfold(fold(m, 4)), m)


def bcirc_slice_loop(t: Tensor3) -> np.ndarray:
    """Reference block circulant: block (r, c) is slice (r - c) mod p."""
    m, n, p = t.dims
    mat = np.zeros((m * p, n * p))
    for c in range(p):
        for r in range(p):
            mat[r * m:(r + 1) * m, c * n:(c + 1) * n] = t.slice((r - c) % p)
    return mat


class TestBcirc:
    def test_tube_example(self):
        t = Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        np.testing.assert_array_equal(bcirc(t).matrix, [[1, 2], [2, 1]])

    def test_identity_embeds_to_identity(self):
        for n, p in [(2, 3), (3, 4), (1, 5)]:
            assert np.array_equal(
                bcirc(Tensor3.identity(n, p)).matrix, np.eye(n * p)
            )

    def test_block_layout(self):
        # column c is the cyclic downshift of column 1 by c - 1
        t = gen(3, 2, 3, 4)
        b = bcirc(t)
        for c in range(4):
            for r in range(4):
                np.testing.assert_array_equal(
                    b.block(r, c), t.slice((r - c) % 4)
                )

    def test_product_homomorphism(self):
        for seed in range(20):
            a = gen(seed, 3, 3, 4)
            b = gen(seed + 100, 3, 3, 4)
            lhs = bcirc(tprod(a, b)).matrix
            rhs = bcirc(a).matrix @ bcirc(b).matrix
            scale = (1 + a.max_abs) * (1 + b.max_abs)
            assert max_abs(lhs - rhs) <= 1e-12 * scale

    def test_sum_homomorphism(self):
        a = gen(0, 2, 2, 3)
        b = gen(1, 2, 2, 3)
        np.testing.assert_array_equal(
            bcirc(a + b).matrix, bcirc(a).matrix + bcirc(b).matrix
        )

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 9),
           st.integers(1, 3), st.integers(0, 10**6))
    def test_matches_slice_loop_construction(self, m, n, p, ell, seed):
        a = gen(seed, m, n, p)
        mat = bcirc(a).matrix
        expected = bcirc_slice_loop(a)
        assert np.array_equal(mat, expected)
        assert mat.flags.c_contiguous and not mat.flags.writeable
        # the direct t-product keeps its exact bits
        b = gen(seed + 1, n, ell, p)
        assert np.array_equal(tprod(a, b, path="direct").array,
                              fold(expected @ unfold(b), p).array)

    def test_direct_path_above_the_limit_builds_no_circulant(self):
        # the 2048x2048 circulant alone would take 33.6 MB
        a, b = gen(1, 16, 16, 128), gen(2, 16, 16, 128)
        expected = bcirc(a).matrix @ unfold(b)
        tracemalloc.start()
        try:
            c = tprod(a, b, path="direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert max_abs(unfold(c) - expected) <= 1e-13 * max_abs(expected)

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 9),
           st.integers(0, 10**6))
    def test_circulant_deviation_matches_block_loop(self, m, n, p, seed):
        rng = np.random.default_rng(seed)
        mat = bcirc(gen(seed, m, n, p)).matrix.copy()
        mat[rng.integers(m * p), rng.integers(n * p)] += rng.uniform(-1, 1)
        b = BlockCirculant(mat, p)
        dev = 0.0
        for c in range(1, p):
            for r in range(p):
                ref = b.block((r - c) % p, 0)
                dev = max(dev, float(np.abs(b.block(r, c) - ref).max()))
        assert b.circulant_deviation() == dev


class TestBcircInv:
    def test_trivials(self):
        assert bcirc_inv(BlockCirculant(np.eye(4), 2)) == Tensor3.identity(2, 2)
        t = bcirc_inv(BlockCirculant(np.array([[1.0, 2.0], [2.0, 1.0]]), 2))
        assert t.dims == (1, 1, 2)
        np.testing.assert_array_equal(t.array.ravel(), [1, 2])

    def test_round_trip_bitwise(self):
        for seed in range(20):
            t = gen(seed, 2, 4, 3)
            assert bcirc_inv(bcirc(t)) == t

    def test_rejects_non_circulant(self):
        m = np.arange(16.0).reshape(4, 4)
        with pytest.raises(NotBlockCirculant):
            bcirc_inv(BlockCirculant(m, 2))

    def test_tolerates_rounding_noise(self):
        t = gen(5, 2, 2, 3)
        m = bcirc(t).matrix.copy()
        m[0, 0] += 1e-13 * t.max_abs
        assert bcirc_inv(BlockCirculant(m, 3)).allclose(t, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, value):
        # off the first block column, where bcirc_inv reads no entry and a
        # NaN or inf deviation compared false against its tolerance
        m = bcirc(gen(1, 2, 2, 3)).matrix.copy()
        m[0, 2] = value
        with pytest.raises(ValueError):
            BlockCirculant(m, 3)


class TestTprod:
    def test_identity_neutral(self):
        for seed in range(5):
            a = gen(seed, 3, 3, 4)
            eye = Tensor3.identity(3, 4)
            assert tprod(a, eye).allclose(a, atol=1e-14)
            assert tprod(eye, a).allclose(a, atol=1e-14)

    def test_tube_product(self):
        a = Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1))
        b = Tensor3(np.array([3.0, 4.0]).reshape(2, 1, 1))
        c = tprod(a, b)
        np.testing.assert_allclose(c.array.ravel(), [11.0, 10.0])

    def test_dual_path_agreement(self):
        for seed in range(100):
            m, n, ell, p = 2 + seed % 3, 2 + (seed // 3) % 3, 2, 1 + seed % 6
            a = gen(seed, m, n, p)
            b = gen(seed + 1000, n, ell, p)
            direct = tprod(a, b, path="direct")
            fourier = tprod(a, b, path="fourier")
            assert max_abs((direct - fourier).array) <= 1e-12 * (
                (1 + a.max_abs) * (1 + b.max_abs)
            )

    @settings(max_examples=80)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
        st.integers(1, 9), st.integers(0, 10**6),
    )
    def test_fourier_path_matches_direct(self, m, n, ell, p, seed):
        a = gen(seed, m, n, p)
        b = gen(seed + 1, n, ell, p)
        direct = tprod(a, b, path="direct")
        fourier = tprod(a, b, path="fourier")
        assert max_abs((direct - fourier).array) <= 1e-11 * (
            (1 + a.max_abs) * (1 + b.max_abs)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tprod(gen(0, 2, 3, 2), gen(1, 2, 2, 2))
        with pytest.raises(DimensionError):
            tprod(gen(0, 2, 2, 2), gen(1, 2, 2, 3))

    @pytest.mark.parametrize("path", ["direct", "fourier"])
    def test_overflow_is_a_math_error(self, path):
        # pytest turns numpy's RuntimeWarning into an error, so this also
        # checks that the overflow warning is kept quiet
        a = scalar_mul(2.0**600, gen(0, 3, 3, 4))
        with pytest.raises(MathError, match="overflowed"):
            tprod(a, a, path=path)

    def test_matches_definition(self):
        a = gen(2, 3, 2, 4)
        b = gen(3, 2, 5, 4)
        c = tprod(a, b)
        expected = fold(bcirc(a).matrix @ unfold(b), 4)
        assert c == expected

    def test_auto_path_switches_beyond_desk_scale(self):
        # p * min(m, n, l) = 33 * 3 > 64 routes through the Fourier path
        a = gen(20, 3, 3, 33)
        b = gen(21, 3, 3, 33)
        auto = tprod(a, b)
        direct = tprod(a, b, path="direct")
        assert max_abs((auto - direct).array) <= 1e-11 * (
            (1 + a.max_abs) * (1 + b.max_abs)
        )
        with pytest.raises(ValueError):
            tprod(a, b, path="warp")


class TestTranspose:
    def test_identity_fixed(self):
        assert transpose(Tensor3.identity(3, 4)) == Tensor3.identity(3, 4)

    def test_involution_exact(self):
        for seed in range(10):
            t = gen(seed, 2, 4, 5)
            assert transpose(transpose(t)) == t

    def test_matches_bcirc_transpose(self):
        for seed in range(50):
            t = gen(seed, 2, 3, 4)
            np.testing.assert_array_equal(
                bcirc(transpose(t)).matrix, bcirc(t).matrix.T
            )

    def test_product_reversal(self):
        for seed in range(10):
            a = gen(seed, 3, 2, 4)
            b = gen(seed + 50, 2, 4, 4)
            lhs = transpose(tprod(a, b))
            rhs = tprod(transpose(b), transpose(a))
            assert max_abs((lhs - rhs).array) <= 1e-13 * (
                (1 + a.max_abs) * (1 + b.max_abs)
            )


class TestArithmetic:
    def test_add_zero(self):
        t = gen(4, 2, 3, 2)
        assert t + Tensor3.zeros(2, 3, 2) == t

    def test_add_requires_matching_dims(self):
        with pytest.raises(DimensionError):
            add(gen(0, 2, 2, 2), gen(0, 2, 2, 3))

    def test_scalar_mul(self):
        t = gen(5, 2, 2, 3)
        np.testing.assert_array_equal(scalar_mul(2.0, t).array, 2.0 * t.array)

    def test_power_zero_is_identity(self):
        t = gen(6, 3, 3, 2)
        assert power(t, 0) == Tensor3.identity(3, 2)

    def test_power_three(self):
        for seed in range(5):
            t = gen(seed, 3, 3, 4)
            expected = tprod(t, tprod(t, t))
            assert max_abs((power(t, 3) - expected).array) <= 1e-12 * (
                1 + t.max_abs
            ) ** 3

    def test_power_requires_square(self):
        with pytest.raises(DimensionError):
            power(gen(0, 2, 3, 2), 2)

    def test_ring_axioms(self):
        for seed in range(20):
            a = gen(seed, 3, 3, 3)
            b = gen(seed + 20, 3, 3, 3)
            c = gen(seed + 40, 3, 3, 3)
            scale = (1 + a.max_abs) * (1 + b.max_abs) * (1 + c.max_abs)
            assoc = tprod(tprod(a, b), c) - tprod(a, tprod(b, c))
            assert max_abs(assoc.array) <= 1e-12 * scale
            dist = tprod(a, b + c) - (tprod(a, b) + tprod(a, c))
            assert max_abs(dist.array) <= 1e-12 * scale


class TestSquareSlices:
    """Every square-slice precondition is refused by one rule, with one
    message naming what required it."""

    @pytest.mark.parametrize("check, name", [
        pytest.param(lambda t: power(t, 2), "power", id="power"),
        pytest.param(lambda t: to_fourier(t).power(2), "power",
                     id="FourierBlocks.power"),
        pytest.param(lambda t: is_t_symmetric(t, 1e-9), "t-symmetry",
                     id="is_t_symmetric"),
        pytest.param(lambda t: is_orthogonal(t, 1e-9), "orthogonality",
                     id="is_orthogonal"),
        *(pytest.param(op, op.__name__, id=op.__name__) for op in (
            t_inverse, t_index, t_drazin, t_group, unit_regular_witness,
            t_schur, t_jordan, idempotent_factorization, t_jordan_naive)),
    ])
    def test_non_square_slices_are_refused(self, check, name):
        with pytest.raises(DimensionError,
                           match=f"^{name} requires square slices, got 2x3$"):
            check(gen(0, 2, 3, 4))
