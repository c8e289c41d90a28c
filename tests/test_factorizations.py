"""Tests for the paired real factorizations and structural predicates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    DefectiveBlock,
    FourierBlocks,
    MathError,
    PartitionViolation,
    Tensor3,
    assemble_real,
    bcirc,
    gen,
    idempotent_factorization,
    is_f_diagonal,
    is_f_quasi_triangular,
    is_f_upper_block_bidiagonal,
    is_orthogonal,
    is_t_symmetric,
    scalar_mul,
    t_jordan,
    t_jordan_naive,
    t_schur,
    t_svd,
    t_svd_naive_real_blocks,
    to_fourier,
    tprod,
    transpose,
)
from tprod import factorizations
from tprod.factorizations import (
    _band_residual,
    finest_partition,
    rec_tolerance,
    tjordan_report,
    tschur_report,
)
from tprod.fourier import real_forced_indices
from tprod.generate import KINDS

from conftest import max_abs


class TestTSvd:
    def test_identity_tensor(self):
        res = t_svd(Tensor3.identity(3, 4))
        assert res.report.passed
        assert max_abs((res.s - Tensor3.identity(3, 4)).array) <= 1e-12
        assert is_orthogonal(res.u, 1e-12)
        assert is_orthogonal(res.v, 1e-12)

    def test_svd_obstruction_tensor_gets_real_factors(self, svd_example):
        # Fourier block 2 is i*I, which admits no real orthogonal SVD on
        # its own; the paired construction still returns real factors.
        res = t_svd(svd_example)
        assert res.report.passed
        for check in res.report.checks:
            assert check.residual <= 1e-10
        recon = res.reconstruct()
        assert max_abs((recon - svd_example).array) <= 1e-12

    def test_zero_tensor_degenerate_blocks(self):
        res = t_svd(Tensor3.zeros(3, 2, 4))
        assert res.report.passed
        assert max_abs(res.s.array) == 0.0
        assert max_abs((res.u - Tensor3.identity(3, 4)).array) <= 1e-14
        assert max_abs((res.v - Tensor3.identity(2, 4)).array) <= 1e-14

    def test_seeded_rectangular(self):
        for seed in range(25):
            a = gen(seed, 3, 5, 4)
            res = t_svd(a)
            assert res.report.passed
            assert max_abs((res.reconstruct() - a).array) <= 1e-10
            assert res.u.dims == (3, 3, 4)
            assert res.s.dims == (3, 5, 4)
            assert res.v.dims == (5, 5, 4)

    def test_singular_values_nonincreasing_per_block(self):
        res = t_svd(gen(3, 4, 4, 5))
        assert res.fourier_singular_values.shape == (5, 4)
        for k in range(5):
            sig = res.fourier_singular_values[k]
            assert np.all(sig >= 0) and np.all(np.diff(sig) <= 0)

    def test_bcirc_singular_value_consistency(self):
        for seed in range(10):
            a = gen(seed, 3, 4, 4)
            res = t_svd(a)
            from_blocks = np.sort(res.fourier_singular_values.ravel())[::-1]
            from_bcirc = np.linalg.svd(bcirc(a).matrix, compute_uv=False)
            assert max_abs(from_blocks - from_bcirc) <= 1e-9

    def test_bcirc_orthogonality(self):
        res = t_svd(gen(8, 3, 3, 4))
        bu = bcirc(res.u).matrix
        assert max_abs(bu.T @ bu - np.eye(12)) <= 1e-10 * 3 * 4


class TestTSchur:
    def test_tube_tensor(self):
        res = t_schur(gen(0, 1, 1, 5))
        assert res.report.passed
        assert res.realized_partition == (1,)

    def test_f_upper_triangular_input(self):
        rng = np.random.default_rng(4)
        data = np.triu(rng.uniform(-1, 1, (3, 4, 4)))
        a = Tensor3(data)
        res = t_schur(a)
        assert res.report.passed
        assert res.report.residual("quasi_triangularity") <= 1e-11

    def test_seeded_odd_p(self):
        for seed in range(25):
            a = gen(seed, 4, 4, 3)
            res = t_schur(a)
            assert res.report.passed
            for check in res.report.checks:
                assert check.residual <= 1e-9
            assert all(size <= 2 for size in res.realized_partition)
            assert sum(res.realized_partition) == 4

    def test_reconstruction_identity(self):
        a = gen(41, 3, 3, 5)
        res = t_schur(a)
        recon = tprod(tprod(res.u, res.t), transpose(res.u))
        assert max_abs((recon - a).array) <= rec_tolerance(a)

    def test_overflowing_inverse_transform_is_a_math_error(self):
        # the Schur blocks are finite; their irfft leaves the float64 range
        with pytest.raises(MathError, match="inverse transform overflowed"):
            t_schur(scalar_mul(1e307, gen(2035, 4, 4, 7)))


# a 2x2 Jordan block at eigenvalue 0 and a simple eigenvalue 2
JORDAN = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])


@st.composite
def defective_block_tensors(draw):
    """A 3x3xp tensor, p in 1..9, whose Fourier block k in 0..p//2 is
    S @ JORDAN @ inv(S) with cond(S) <= 2 (S complex off the real-forced
    blocks), and k.  The other blocks are random."""
    p = draw(st.integers(1, 9))
    k = draw(st.integers(0, p // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (p // 2 + 1, 3, 3)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = rng.standard_normal((2, 3, 3))
    real_forced = k == 0 or 2 * k == p
    q = np.linalg.qr(g[0] if real_forced else g[0] + 1j * g[1])[0]
    s = q * rng.uniform(1.0, 2.0, 3)
    half[k] = s @ JORDAN @ np.linalg.inv(s)
    half[0] = half[0].real
    if p % 2 == 0:
        half[-1] = half[-1].real
    return Tensor3(np.fft.irfft(half, n=p, axis=0)), k


class TestTJordan:
    def test_identity_tensor(self):
        res = t_jordan(Tensor3.identity(3, 2))
        assert res.report.passed
        assert max_abs((res.j - Tensor3.identity(3, 2)).array) <= 1e-12
        assert max_abs((res.p - Tensor3.identity(3, 2)).array) <= 1e-12

    def test_fixture_tensor_real_form(self, jordan_example):
        res = t_jordan(jordan_example)
        assert res.report.passed
        assert res.report.residual("reconstruction") <= 1e-9

    def test_naive_assembly_not_real(self, jordan_example):
        naive = t_jordan_naive(jordan_example)
        assert np.iscomplexobj(naive)
        assert max_abs(naive.imag) >= 0.1

    def test_f_diagonal_input_stays_f_diagonal(self):
        a = gen(7, 4, 4, 3, "f_diagonal")
        res = t_jordan(a)
        assert res.report.passed
        assert is_f_diagonal(res.j, 1e-10)
        assert res.realized_partition == (1, 1, 1, 1)

    def test_seeded_odd_p(self):
        for seed in range(25):
            a = gen(seed + 100, 3, 3, 3)
            res = t_jordan(a)
            assert res.report.passed
            assert all(size <= 2 for size in res.realized_partition)

    def test_defective_block_rejected(self):
        a = Tensor3(np.array([[[1.0, 1.0], [0.0, 1.0]]]))
        with pytest.raises(DefectiveBlock) as excinfo:
            t_jordan(a)
        assert excinfo.value.block_index == 0
        assert str(excinfo.value).count("Fourier block") == 1

    def test_defective_later_block_named(self):
        # p = 2: block 0 = slice sum = diag(1, 2), block 1 = slice
        # difference = the Jordan block [[1, 1], [0, 1]], both exact
        a = Tensor3(np.array([
            [[1.0, 0.5], [0.0, 1.5]],
            [[0.0, -0.5], [0.0, 0.5]],
        ]))
        with pytest.raises(DefectiveBlock) as excinfo:
            t_jordan(a)
        assert excinfo.value.block_index == 1
        assert str(excinfo.value).count("Fourier block 1") == 1

    def test_defective_similar_block_rejected(self):
        # the double eigenvalue 0 of S J S^-1 comes out of eig split by
        # ~3e-8, but its two eigenvectors nearly coincide, so the whole
        # eigenvector basis is numerically rank deficient
        s = np.random.default_rng(1).standard_normal((3, 3))
        a = Tensor3((s @ JORDAN @ np.linalg.inv(s))[None])
        with pytest.raises(DefectiveBlock):
            t_jordan(a)

    @given(defective_block_tensors())
    def test_block_similar_to_jordan_block_named(self, case):
        a, k = case
        with pytest.raises(DefectiveBlock) as excinfo:
            t_jordan(a)
        assert excinfo.value.block_index == k

    def test_verification_rejects_bad_transform(self):
        from tprod import Singular
        from tprod.factorizations import tjordan_report

        a = gen(3, 3, 3, 2)
        res = t_jordan(a)
        with pytest.raises(Singular):
            tjordan_report(a, Tensor3.zeros(3, 3, 2), res.j)
        # near-singular transforms must fail verification, not inflate the
        # conditioning-scaled allowance to the point of passing
        data = res.p.array.copy()
        data *= 1e-12
        data[:, 0, 0] += 1.0
        report = tjordan_report(a, Tensor3(data), res.j)
        assert not report.passed


@st.composite
def t_symmetric_repeated(draw):
    """An exactly t-symmetric n x n x p tensor, n in 1..6 and p in 1..9,
    whose Hermitian Fourier blocks Q diag(lam) Q^H repeat an eigenvalue.

    The blocks are assembled through FourierBlocks and assemble_real, and
    the tensor is then made t-symmetric bit for bit as gen makes it, which
    moves each eigenvalue by rounding only.
    """
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = np.empty((p // 2 + 1, n, n), complex)
    for k in range(len(half)):
        g = rng.standard_normal((2, n, n))
        real = k in real_forced_indices(p)
        q = np.linalg.qr(g[0] if real else g[0] + 1j * g[1])[0]
        lam = rng.choice([-1.0, 0.5, 2.0], n)
        lam[-1] = lam[0]
        h = (q * lam) @ q.conj().T
        half[k] = (h + h.conj().T) / 2
    g, _ = assemble_real(FourierBlocks(half, p))
    return scalar_mul(0.5, g + transpose(g))


class TestHermitianRoute:
    @settings(max_examples=60)
    @given(t_symmetric_repeated())
    def test_repeated_eigenvalues(self, a):
        n = a.dims[0]
        schur, jordan = t_schur(a), t_jordan(a)
        assert schur.report.passed and jordan.report.passed
        assert is_f_diagonal(schur.t, 0.0) and is_f_diagonal(jordan.j, 0.0)
        assert schur.realized_partition == jordan.realized_partition == (1,) * n
        blocks = np.fft.rfft(a.array, axis=0)
        eigenvalues = np.fft.rfft(schur.t.array, axis=0)
        for block, t_block in zip(blocks, eigenvalues):
            expected = np.linalg.eigvalsh(block)
            assert max_abs(np.diag(t_block) - expected) <= 1e-12 * (
                1 + max_abs(expected))


@st.composite
def symmetry_cases(draw):
    """An n x n x p tensor (n in 1..5, p in 1..70): dense, t_symmetric, or
    t_symmetric with one entry moved by one ulp."""
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["dense", "t_symmetric", "ulp"]))
    seed = draw(st.integers(0, 10**6))
    if kind != "ulp":
        return gen(seed, n, n, p, kind)
    arr = gen(seed, n, n, p, "t_symmetric").array.copy()
    k, i, j = (draw(st.integers(0, d - 1)) for d in (p, n, n))
    arr[k, i, j] = np.nextafter(arr[k, i, j], draw(st.sampled_from([-2.0, 2.0])))
    return Tensor3(arr)


class TestTSymmetry:
    """is_t_symmetric measures max|t - t^T| exactly on the slices, and at
    tol 0 it decides the Hermitian route of t_schur and t_jordan."""

    @settings(max_examples=80)
    @given(symmetry_cases())
    def test_exact_residual_and_route(self, a):
        symmetric = a == transpose(a)
        assert is_t_symmetric(a, 0.0) == symmetric
        residual = max_abs((a - transpose(a)).array)
        assert is_t_symmetric(a, residual)
        if residual:
            assert not is_t_symmetric(a, np.nextafter(residual, 0.0))
        if symmetric:
            assert is_f_diagonal(t_schur(a).t, 0.0)

    @pytest.mark.parametrize("n, p", [(4, 512), (64, 16), (16, 128)])
    def test_generated_t_symmetric_is_exact(self, n, p):
        for seed in range(20):
            assert is_t_symmetric(gen(seed, n, n, p, "t_symmetric"), 0.0)

    def test_an_overflowing_difference_is_not_symmetric(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_t_symmetric(scalar_mul(1e308, gen(0, 3, 3, 4)), 0.0)

    def test_symmetric_at_the_top_of_the_range(self):
        a = scalar_mul(1e308, gen(0, 3, 3, 4, "t_symmetric"))
        assert is_t_symmetric(a, 0.0)


class TestIdempotent:
    def test_invertible_input_gives_identity(self):
        a = gen(3, 3, 3, 4)
        res = idempotent_factorization(a)
        assert res.report.passed
        assert max_abs((res.e - Tensor3.identity(3, 4)).array) <= 1e-10

    def test_zero_tensor(self):
        res = idempotent_factorization(Tensor3.zeros(3, 3, 2))
        assert res.report.passed
        assert max_abs(res.e.array) <= 1e-14

    def test_seeded_rank_deficient(self):
        for seed in range(25):
            a = gen(seed, 4, 4, 3, "rank_deficient")
            res = idempotent_factorization(a)
            assert res.report.passed
            for check in res.report.checks:
                assert check.residual <= 1e-9
            assert max_abs((tprod(res.e, res.e) - res.e).array) <= 1e-9

    def test_fourier_ranks_drop(self):
        a = gen(11, 4, 4, 3, "rank_deficient")
        blocks = to_fourier(a).full()
        ranks = [
            np.linalg.matrix_rank(blocks[k]) for k in range(3)
        ]
        assert all(r <= 2 for r in ranks)


class TestPredicates:
    def test_identity_satisfies_all(self):
        eye = Tensor3.identity(3, 2)
        assert is_f_diagonal(eye, 0.0)
        ok, partition = is_f_quasi_triangular(eye, 0.0)
        assert ok and partition == (1, 1, 1)
        ok, partition = is_f_upper_block_bidiagonal(eye, 0.0)
        assert ok and partition == (1, 1, 1)
        assert is_t_symmetric(eye, 0.0)
        assert is_orthogonal(eye, 1e-15)

    def test_tsvd_core_is_f_diagonal(self):
        for seed in range(10):
            res = t_svd(gen(seed, 3, 3, 4))
            assert is_f_diagonal(res.s, 1e-11)

    def test_subdiagonal_entry_needs_bigger_block(self):
        data = np.zeros((1, 3, 3))
        data[0, 2, 0] = 1.0  # row 3, column 1
        ok, partition = is_f_quasi_triangular(Tensor3(data), 1e-12)
        assert not ok and partition is None

    def test_t_symmetric_generator(self):
        a = gen(5, 4, 4, 3, "t_symmetric")
        assert is_t_symmetric(a, 0.0)

    def test_quasi_partition_detection(self):
        data = np.zeros((2, 5, 5))
        data[:, :, :] = np.triu(np.ones((5, 5)))
        data[0, 2, 1] = 0.5  # one 2x2 block at rows 2-3
        ok, partition = is_f_quasi_triangular(Tensor3(data), 1e-12)
        assert ok and partition == (1, 2, 1, 1)

    def test_bidiagonal_lookahead(self):
        # an upper entry spanning columns 1..4 forces the cut pattern to
        # skip position 2 even though a 1x1 block would fit there locally
        data = np.zeros((1, 4, 4))
        data[0] = np.diag([1.0, 2.0, 3.0, 4.0])
        data[0, 0, 3] = 1.0
        ok, partition = is_f_upper_block_bidiagonal(Tensor3(data), 1e-12)
        assert ok and partition == (2, 2)
        ok, partition = is_f_quasi_triangular(Tensor3(data), 1e-12)
        assert ok and partition == (1, 1, 1, 1)


class TestFinestPartition:
    def test_all_ones_for_diagonal(self):
        stack = np.stack([np.diag([1.0, 2.0, 3.0])])
        assert finest_partition(stack, 1e-12) == (1, 1, 1)

    def test_none_when_three_by_three_needed(self):
        stack = np.zeros((1, 3, 3))
        stack[0, 1, 0] = 1.0
        stack[0, 2, 1] = 1.0
        assert finest_partition(stack, 1e-12) is None

    def test_union_across_slices(self):
        # slice 1 pairs rows (1,2); slice 2 pairs rows (2,3) -> impossible
        a = np.zeros((3, 3))
        a[1, 0] = 1.0
        b = np.zeros((3, 3))
        b[2, 1] = 1.0
        assert finest_partition(np.stack([a, b]), 1e-12) is None
        # compatible slices agree on the 2x2 block position
        c = np.zeros((3, 3))
        c[1, 0] = 0.5
        assert finest_partition(np.stack([a, c]), 1e-12) == (2, 1)

    def test_bidiagonal_superdiagonal_allowed(self):
        stack = np.zeros((1, 4, 4))
        stack[0] = np.diag([1.0, 2.0, 3.0, 4.0])
        stack[0, 0, 1] = 5.0  # adjacent-block coupling is fine
        stack[0, 1, 2] = 6.0
        assert finest_partition(stack, 1e-12, bidiagonal=True) == (1, 1, 1, 1)
        stack[0, 0, 2] = 7.0  # skips a block: needs a 2x2 merge
        assert finest_partition(stack, 1e-12, bidiagonal=True) == (2, 1, 1)

    @staticmethod
    def _enumerate_partitions(n):
        if n == 0:
            yield ()
            return
        for size in (1, 2):
            if size <= n:
                for rest in TestFinestPartition._enumerate_partitions(n - size):
                    yield (size,) + rest

    @staticmethod
    def _conforms(stack, partition, bidiagonal):
        beta = np.concatenate(
            [np.full(size, b) for b, size in enumerate(partition)]
        )
        diff = beta[None, :] - beta[:, None]
        allowed = (diff == 0) | (diff == 1) if bidiagonal else (diff >= 0)
        return bool(np.all(np.abs(stack[:, ~allowed]) <= 1e-12))

    @pytest.mark.parametrize("bidiagonal", [False, True])
    def test_matches_brute_force_enumeration(self, bidiagonal):
        # the dynamic program must agree with exhaustive search on whether
        # a partition exists and on the maximal number of blocks
        rng = np.random.default_rng(99)
        for trial in range(300):
            n = int(rng.integers(2, 7))
            stack = np.zeros((2, n, n))
            for _ in range(int(rng.integers(1, 2 * n))):
                r, c = rng.integers(0, n, 2)
                stack[rng.integers(0, 2), r, c] = 1.0
            got = finest_partition(stack, 1e-12, bidiagonal=bidiagonal)
            feasible = [
                part for part in self._enumerate_partitions(n)
                if self._conforms(stack, part, bidiagonal)
            ]
            if got is None:
                assert not feasible, (stack.tolist(), feasible)
            else:
                assert self._conforms(stack, got, bidiagonal)
                assert len(got) == max(len(p) for p in feasible)


@st.composite
def banded_stacks(draw):
    """A random (p, n, n) stack, n in 1..6, and a partition of n into 1s
    and 2s."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    partition = []
    while sum(partition) < n:
        partition.append(draw(st.integers(1, min(2, n - sum(partition)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((p, n, n)), tuple(partition)


class TestBandResidual:
    @given(banded_stacks(), st.booleans())
    def test_matches_entrywise_loop(self, case, bidiagonal):
        stack, partition = case
        block = [b for b, size in enumerate(partition) for _ in range(size)]
        n = stack.shape[1]
        expected = 0.0
        for i in range(n):
            for j in range(n):
                if block[i] > block[j] or (bidiagonal and block[j] > block[i] + 1):
                    expected = max(expected, float(np.abs(stack[:, i, j]).max()))
        assert _band_residual(stack, partition, bidiagonal) == expected


class TestNaiveSvd:
    def test_returns_complex_stacks(self, svd_example):
        u, s, v = t_svd_naive_real_blocks(svd_example)
        assert np.iscomplexobj(u) and np.iscomplexobj(s) and np.iscomplexobj(v)
        assert u.shape == (4, 2, 2)

    def test_block_two_has_no_real_orthogonal_svd(self, svd_example):
        # the second Fourier block G satisfies G G^T = -I, which is negative
        # definite, while a real orthogonal SVD would force U Sigma^2 U^T >= 0
        fb = to_fourier(svd_example)
        g = fb.blocks[1]
        gram = g @ g.T
        assert max_abs(gram + np.eye(2)) <= 1e-12
        eigs = np.linalg.eigvalsh(gram.real)
        assert np.all(eigs < 0)


class TestEvenPPartitionCompatibility:
    def test_even_p_schur_partitions_align(self):
        # the two real-forced blocks may have different numbers of real
        # eigenvalues, but both counts have the parity of n, so the
        # real-first ordering always yields a common partition
        for seed in range(20):
            a = gen(seed + 500, 5, 5, 4)
            res = t_schur(a)
            assert res.report.passed
            assert all(size <= 2 for size in res.realized_partition)

    def test_even_p_jordan_partitions_align(self):
        for seed in range(10):
            a = gen(seed + 900, 4, 4, 6)
            res = t_jordan(a)
            assert res.report.passed
            assert all(size <= 2 for size in res.realized_partition)

    def test_tampered_factor_raises_partition_violation(self):
        # the detection still guards verification of external factors
        from tprod.factorizations import tschur_report

        a = gen(33, 3, 3, 2)
        res = t_schur(a)
        data = res.t.array.copy()
        data[:, 1, 0] = 0.3
        data[:, 2, 1] = 0.4  # would need a 3x3 diagonal block
        bad_t = Tensor3(data)
        with pytest.raises(PartitionViolation):
            tschur_report(a, res.u, bad_t)


def _cuts(partition):
    return set(np.cumsum(partition)[:-1].tolist())


class TestStatedPartition:
    """t_schur and t_jordan state the partition they construct: 1x1
    blocks first, then 2x2 blocks, fitting every slice."""

    @settings(max_examples=150)
    @given(st.integers(1, 8), st.integers(1, 9), st.sampled_from(KINDS),
           st.integers(0, 2**16))
    def test_stated_partition_is_refined_by_detection(self, n, p, kind, seed):
        a = gen(seed, n, n, p, kind)
        for op, report, bidiagonal in ((t_schur, tschur_report, False),
                                       (t_jordan, tjordan_report, True)):
            res = op(a)
            x, y = (res.u, res.t) if op is t_schur else (res.p, res.j)
            partition = res.realized_partition
            assert set(partition) <= {1, 2} and sum(partition) == n
            assert list(partition) == sorted(partition)
            detected = finest_partition(y.array, rec_tolerance(y), bidiagonal)
            assert _cuts(partition) <= _cuts(detected)
            assert res.report.passed
            assert report(a, x, y).passed

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 9), st.sampled_from(KINDS),
           st.integers(0, 2**16))
    def test_realness_residue_is_exactly_zero(self, n, p, kind, seed):
        a = gen(seed, n, n, p, kind)
        for op in (t_svd, t_schur, t_jordan, idempotent_factorization):
            (realness,) = (c for c in op(a).report.checks if c.name == "realness")
            assert realness.residual == 0.0

    def test_ops_do_not_search_for_a_partition(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("partition searched for")

        monkeypatch.setattr(factorizations, "finest_partition", search)
        a = gen(1, 4, 4, 6)
        schur, jordan = t_schur(a), t_jordan(a)
        assert schur.report.passed and jordan.report.passed
        with pytest.raises(AssertionError, match="searched"):
            tschur_report(a, schur.u, schur.t)
        with pytest.raises(AssertionError, match="searched"):
            tjordan_report(a, jordan.p, jordan.j)

    @pytest.mark.parametrize("partition", [(3,), (1,), (1, 1, 1, 1), (2, 0, 1)])
    def test_reports_refuse_a_partition_not_of_1s_and_2s(self, partition):
        a = gen(1, 3, 3, 4)
        schur, jordan = t_schur(a), t_jordan(a)
        with pytest.raises(PartitionViolation):
            tschur_report(a, schur.u, schur.t, partition=partition)
        with pytest.raises(PartitionViolation):
            tjordan_report(a, jordan.p, jordan.j, partition=partition)
