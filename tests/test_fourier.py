"""Tests for the Fourier-domain engine and conjugate pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    BlockOpError,
    DefectiveBlock,
    DimensionError,
    FourierBlocks,
    MathError,
    PairingViolation,
    Tensor3,
    assemble_real,
    bcirc,
    check_pairing,
    gen,
    idempotent_factorization,
    inverse_transform,
    is_orthogonal,
    is_t_symmetric,
    scalar_mul,
    t_drazin,
    t_group,
    t_index,
    t_inverse,
    t_jordan,
    t_pinv,
    t_schur,
    t_svd,
    to_fourier,
    tprod,
    transpose,
    unit_regular_witness,
)
from tprod import core, fourier
from tprod.fourier import (
    SliceStack,
    mirror_blocks,
    pair_tolerance,
    real_forced_indices,
)
from tprod.ginverses import (
    group_report,
    inverse_report,
    penrose_report,
    witness_report,
)

from conftest import matrix_cutoff, max_abs, pinv_of_one

SQRT2 = np.sqrt(2.0)


def pinv(b):
    """The pseudoinverse of the block b at its own rank cutoff."""
    return pinv_of_one(b, matrix_cutoff(b))


# independently chosen (unpaired) Jordan forms of the Jordan-example blocks
NAIVE_JORDAN_BLOCKS = [
    np.diag([-1j, 1j]),
    np.diag([-1.0 + 0j, 1j]),
    np.diag([1 + SQRT2 * 1j, 1 - SQRT2 * 1j]),
    np.diag([-1.0 + 0j, -1j]),
]


def dft_matrix(p):
    """The normalized p x p Fourier matrix F_p of the convention lock."""
    return np.fft.fft(np.eye(p), norm="ortho")


class TestFourierContext:
    """The transform constants of the convention lock, as to_fourier
    realizes them: xi = exp(-2*pi*i/p) and the normalized DFT matrix."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 8, 16, 64])
    def test_primitive_root(self, p):
        data = np.zeros((p, 1, 1))
        data[1 % p] = 1.0
        blocks = to_fourier(Tensor3(data)).full()[:, 0, 0]
        xi = blocks[1 % p]
        assert abs(xi - np.exp(-2j * np.pi / p)) <= 1e-14
        assert max_abs(blocks - xi ** np.arange(p)) <= 1e-13
        assert abs(xi**p - 1) <= 1e-14
        for m in range(1, p):
            assert abs(xi**m - 1) > 1e-14

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 16])
    def test_dft_matrix_unitary(self, p):
        f = dft_matrix(p)
        assert max_abs(f.conj().T @ f - np.eye(p)) <= 1e-13
        # slice k of this tensor is the unit vector e_k, so block i is
        # row i of sqrt(p) * F_p
        blocks = to_fourier(Tensor3(np.eye(p)[:, :, None])).full()[:, :, 0]
        assert max_abs(blocks / np.sqrt(p) - f) <= 1e-13


class TestToFourier:
    def test_svd_example_block2(self, svd_example):
        fb = to_fourier(svd_example)
        assert max_abs(fb.blocks[1] - 1j * np.eye(2)) <= 1e-12
        assert max_abs(fb.blocks[1] @ fb.blocks[1].T + np.eye(2)) <= 1e-12

    def test_svd_example_block1(self, svd_example):
        # block 1 is the plain sum of the slices
        fb = to_fourier(svd_example)
        expected = svd_example.array.sum(axis=0)
        np.testing.assert_allclose(fb.blocks[0], np.diag([1.0, 3.0]), atol=1e-13)
        np.testing.assert_allclose(fb.blocks[0].real, expected, atol=1e-13)

    def test_jordan_example_blocks(self, jordan_example):
        blocks = to_fourier(jordan_example).full()
        expected = [
            np.array([[0, -1], [1, 0]], dtype=complex),
            np.array([[1 + 1j, 1j], [-1 + 2j, -2]]),
            np.array([[2, -3], [1, 0]], dtype=complex),
            np.array([[1 - 1j, -1j], [-1 - 2j, -2]]),
        ]
        for k in range(4):
            assert max_abs(blocks[k] - expected[k]) <= 1e-12

    def test_holds_the_half_spectrum(self):
        fb = to_fourier(gen(0, 2, 2, 3))
        assert fb.blocks.shape == (2, 2, 2)
        assert fb.dims == (2, 2, 3)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_pairing_is_an_involution(self, p):
        pairing = [(p - k) % p for k in range(p)]
        assert all(pairing[pairing[k]] == k for k in range(p))
        assert pairing[0] == 0
        if p % 2 == 0 and p > 1:
            assert pairing[p // 2] == p // 2


class TestFourierBlocksStorage:
    def test_caller_array_stays_writable(self):
        # a C-contiguous complex128 input is what ascontiguousarray returns
        # as it is; only the stored view may be frozen
        arr = np.zeros((2, 2, 2), dtype=np.complex128)
        fb = FourierBlocks(arr, 2)
        assert arr.flags.writeable
        assert not fb.blocks.flags.writeable
        arr[0, 0, 0] = 1.0
        assert fb.blocks[0, 0, 0] == 1.0

    def test_requires_the_half_spectrum(self):
        full = to_fourier(gen(0, 2, 2, 4)).full()
        with pytest.raises(ValueError, match=r"must have shape \(3, m, n\)"):
            FourierBlocks(full, 4)


class TestIdentityAndDistance:
    @pytest.mark.parametrize("n, p", [(1, 1), (2, 4), (3, 4), (3, 5), (4, 6)])
    def test_identity_is_read_only_and_distance_is_one_irfft(self, n, p):
        eye = FourierBlocks.identity(n, p)
        assert eye.dims == (n, n, p)
        assert not eye.blocks.flags.writeable
        with pytest.raises(ValueError):
            eye.blocks[0, 0, 0] = 2.0
        assert np.array_equal(
            eye.blocks, np.broadcast_to(np.eye(n), (p // 2 + 1, n, n)))
        for seed in range(3):
            x = to_fourier(gen(seed, n, n, p))
            slices = np.fft.irfft(x.blocks - np.eye(n), n=p, axis=0)
            assert x.distance(eye) == np.abs(slices).max()
            # t^0 is the identity, as the Drazin report takes it at index 0
            assert x.power(0) == eye
            assert not x.power(0).blocks.flags.writeable
        assert FourierBlocks.identity(n, p) == eye

    def test_distance_refuses_unequal_dims(self):
        # p = 4 and p = 5 both store three blocks
        blocks = to_fourier(gen(3, 2, 2, 5)).blocks
        with pytest.raises(DimensionError,
                           match=r"dims \(2, 2, 5\) != \(2, 2, 4\)"):
            FourierBlocks(blocks, 5).distance(FourierBlocks(blocks, 4))
        with pytest.raises(DimensionError,
                           match=r"dims \(2, 3, 5\) != \(3, 2, 5\)"):
            to_fourier(gen(3, 2, 3, 5)).distance(to_fourier(gen(3, 3, 2, 5)))

    @pytest.mark.parametrize("p", range(3, 9))
    def test_a_nan_block_is_one_overflow_whatever_the_dc_imaginary_part(self, p):
        # a NaN block makes the pairing allowance NaN, so a finite
        # imaginary DC part is not certified against it: the NaN residual
        # is the one error, as it is with that part at 0
        base = to_fourier(gen(p, 2, 2, p)).blocks.copy()
        base[1, 1, 0] = complex(np.nan, 0.0)
        zeros = FourierBlocks(np.zeros_like(base), p)
        for imag in (0.0, 1e-3):
            blocks = base.copy()
            blocks[0, 0, 0] += 1j * imag
            with pytest.raises(MathError) as excinfo:
                FourierBlocks(blocks, p).distance(zeros)
            assert type(excinfo.value) is MathError
            assert str(excinfo.value) == fourier.IDENTITY_OVERFLOW


    @pytest.mark.parametrize("k", [0, 2])
    def test_a_nan_that_irfft_drops_is_an_overflow(self, k):
        # irfft never reads the imaginary part of the DC (k = 0) or Nyquist
        # (k = 2) block: a NaN there leaves finite slices and a NaN residue,
        # which distance refuses as assemble_real refuses those blocks
        blocks = to_fourier(gen(4, 2, 2, 4)).blocks.copy()
        blocks[k, 0, 0] = complex(blocks[k, 0, 0].real, np.nan)
        fb = FourierBlocks(blocks, 4)
        with pytest.raises(MathError) as excinfo:
            fb.distance(FourierBlocks(np.zeros_like(blocks), 4))
        assert type(excinfo.value) is MathError
        assert str(excinfo.value) == fourier.IDENTITY_OVERFLOW
        with pytest.raises(BlockOpError):
            assemble_real(fb)


class TestSliceStack:
    """The verification algebra on the slices: the operations of the half
    spectrum's, by tprod's direct path, with no transform."""

    @pytest.mark.parametrize("m, n, l, p", [(1, 1, 1, 1), (2, 3, 2, 4),
                                            (3, 3, 3, 5), (4, 2, 3, 6)])
    def test_the_operations_are_tprods(self, m, n, l, p):
        a, b = gen(1, m, n, p), gen(2, n, l, p)
        x, y = SliceStack(a.array), SliceStack(b.array)
        assert x.dims == a.dims
        direct, fourier_path = (tprod(a, b, path=path)
                                for path in ("direct", "fourier"))
        np.testing.assert_array_equal((x @ y).slices, direct.array)
        np.testing.assert_array_equal(x.T.slices, transpose(a).array)
        assert ((x @ y).distance(SliceStack(fourier_path.array))
                == (direct - fourier_path).max_abs)
        # the same identity in both domains, to rounding
        fa = to_fourier(a)
        assert ((x.T @ x).distance(SliceStack.identity(n, p))
                == pytest.approx((fa.T @ fa).distance(
                    FourierBlocks.identity(n, p)), rel=1e-9, abs=1e-14))

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 4), (3, 5)])
    def test_identity_and_power(self, n, p):
        eye = SliceStack.identity(n, p)
        assert SliceStack.identity(n, p).slices is eye.slices
        assert not eye.slices.flags.writeable
        np.testing.assert_array_equal(eye.slices, Tensor3.identity(n, p).array)
        a = gen(n, n, n, p)
        x = SliceStack(a.array)
        assert x.power(0).slices is eye.slices
        assert x.power(1) is x
        assert max_abs(x.power(3).slices - core.power(a, 3).array) \
            <= 1e-13 * (1 + core.power(a, 3).max_abs)
        with pytest.raises(ValueError, match="nonnegative"):
            x.power(-1)
        with pytest.raises(DimensionError, match="power requires square"):
            SliceStack(gen(1, 2, 3, p).array).power(2)

    def test_refusals_match_the_half_spectrum(self):
        a, b = gen(3, 2, 3, 5), gen(3, 3, 2, 5)
        for x, y in ((SliceStack(a.array), SliceStack(b.array)),
                     (to_fourier(a), to_fourier(b))):
            with pytest.raises(DimensionError,
                               match=r"dims \(2, 3, 5\) != \(3, 2, 5\)"):
                x.distance(y)
            with pytest.raises(DimensionError,
                               match="cannot t-multiply 2x3x5 by 2x3x5"):
                x @ x

    def test_an_overflowed_residual_is_a_math_error(self):
        x = SliceStack(scalar_mul(1e200, gen(3, 3, 3, 4)).array)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MathError) as excinfo:
                (x @ x).distance(x)
        assert str(excinfo.value) == fourier.IDENTITY_OVERFLOW

    # p * max(m, n) of the largest operand decides: 64 or 80 here
    @pytest.mark.parametrize("dims, domain", [
        (((2, 2, 16), (4, 2, 16)), SliceStack),
        (((2, 2, 16), (5, 2, 16)), FourierBlocks),
    ])
    def test_operands_follow_the_direct_path_limit(self, dims, domain):
        tensors = [gen(k, *d) for k, d in enumerate(dims)]
        xs = fourier.operands(*tensors)
        assert [type(x) for x in xs] == [domain] * len(tensors)
        assert [x.dims for x in xs] == [t.dims for t in tensors]


class TestFourierBlocksEquality:
    def test_equal_blocks_compare_equal(self):
        a = gen(3, 2, 3, 5)
        fa, fb = to_fourier(a), to_fourier(a)
        assert fa is not fb
        assert fa == fb
        assert not fa != fb

    def test_unequal_blocks_compare_unequal(self):
        assert to_fourier(gen(3, 2, 3, 5)) != to_fourier(gen(4, 2, 3, 5))
        assert to_fourier(gen(3, 2, 3, 5)) != to_fourier(gen(3, 3, 2, 5))

    def test_a_different_p_compares_unequal(self):
        # p = 4 and p = 5 both store three blocks
        blocks = to_fourier(gen(3, 2, 2, 5)).blocks
        assert FourierBlocks(blocks, 5) != FourierBlocks(blocks, 4)

    def test_unhashable_and_unequal_to_other_types(self):
        fb = to_fourier(gen(3, 2, 2, 3))
        with pytest.raises(TypeError):
            hash(fb)
        assert fb != fb.blocks.tolist()


class TestFromFourier:
    def test_round_trip(self):
        for seed in range(30):
            t = gen(seed, 3, 2, 1 + seed % 8)
            back = assemble_real(to_fourier(t))[0]
            assert max_abs((back - t).array) <= 1e-12

    def test_constant_blocks_concentrate_in_slice_one(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        fb = FourierBlocks.from_full(np.stack([m, m, m, m]).astype(complex))
        t = assemble_real(fb)[0]
        assert max_abs(t.slice(0) - m) <= 1e-14
        assert max_abs(t.array[1:]) <= 1e-14

    @pytest.mark.parametrize("p", range(3, 9))
    def test_finite_blocks_past_the_range_are_an_overflow(self, p):
        # every entry is finite, though its modulus is not; the slices
        # leave the float64 range
        blocks = np.zeros((p // 2 + 1, 2, 2), complex)
        blocks[1] = 1.5e308 * (1 + 1j)
        with pytest.raises(MathError) as excinfo:
            assemble_real(FourierBlocks(blocks, p))
        assert type(excinfo.value) is MathError
        assert str(excinfo.value) == fourier.TRANSFORM_OVERFLOW

    @pytest.mark.parametrize("p", range(1, 8))
    def test_a_non_finite_entry_is_named_at_its_block(self, p):
        # anywhere in the stored blocks, the imaginary parts of the DC and
        # Nyquist blocks included, which irfft drops
        base = to_fourier(gen(p, 2, 3, p)).blocks
        for bad in (np.inf, -np.inf, np.nan):
            for k, i, j in np.ndindex(base.shape):
                for part in ("real", "imag"):
                    blocks = base.copy()
                    getattr(blocks, part)[k, i, j] = bad
                    if k + 1 < len(blocks):  # a later block is not named
                        blocks[-1].real[1, 2] = np.nan
                    with pytest.raises(BlockOpError) as excinfo:
                        assemble_real(FourierBlocks(blocks, p))
                    assert excinfo.value.block_index == k

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_a_nan_block_is_named_before_the_pairing_check(self, p):
        # a finite imaginary DC part is held to the pairing allowance,
        # which the NaN block would make NaN
        blocks = to_fourier(gen(p, 2, 2, p)).blocks.copy()
        blocks[0, 0, 0] += 1e-3j
        blocks[1, 1, 0] = complex(np.nan, 0.0)
        with pytest.raises(BlockOpError) as excinfo:
            assemble_real(FourierBlocks(blocks, p))
        assert excinfo.value.block_index == 1

    def test_naive_jordan_blocks_fail_require_real(self):
        with pytest.raises(PairingViolation):
            assemble_real(FourierBlocks.from_full(np.stack(NAIVE_JORDAN_BLOCKS)))

    def test_naive_jordan_blocks_complex_slice_value(self):
        slices = inverse_transform(np.stack(NAIVE_JORDAN_BLOCKS))
        expected = 0.25 * np.diag(
            [-1 + (SQRT2 - 1) * 1j, 1 + (1 - SQRT2) * 1j]
        )
        assert max_abs(slices[0] - expected) <= 1e-14
        assert max_abs(slices.imag) >= 0.1


class TestCheckPairing:
    def test_real_tensors_pass(self):
        for seed in range(30):
            t = gen(seed, 2, 3, 1 + seed % 8)
            report = check_pairing(to_fourier(t).full())
            assert report.passed

    def test_self_paired_perturbation_doubles(self):
        # p = 2: block 2 is its own partner, so an +i*eps perturbation at
        # one entry shows up as 2*eps in the conjugate-pairing residual.
        eps = 1e-3
        blocks = to_fourier(gen(1, 2, 2, 2)).full()
        blocks[1, 0, 0] += 1j * eps
        report = check_pairing(blocks)
        assert report.residual("conjugate_pairing") == pytest.approx(2 * eps)
        assert report.residual("mid_block_realness") == pytest.approx(eps)
        assert not report.passed

    def test_cross_pair_perturbation(self):
        eps = 1e-4
        blocks = to_fourier(gen(2, 2, 2, 5)).full()
        blocks[1, 0, 1] += 1j * eps
        report = check_pairing(blocks)
        assert report.residual("conjugate_pairing") == pytest.approx(
            eps, rel=1e-6
        )

    def test_naive_jordan_blocks_partial_pairing(self):
        report = check_pairing(np.stack(NAIVE_JORDAN_BLOCKS))
        # block 1 is diag(-i, i): realness residual exactly 1
        assert report.residual("block1_realness") == pytest.approx(1.0)
        # blocks 2 and 4 are conjugate partners and do pair; the remaining
        # defect comes from the self-paired middle block
        blocks = NAIVE_JORDAN_BLOCKS
        assert max_abs(blocks[3] - blocks[1].conj()) == 0.0
        assert report.residual("conjugate_pairing") == pytest.approx(2 * SQRT2)
        assert not report.passed

    def test_p1_has_single_check(self):
        report = check_pairing(to_fourier(gen(3, 2, 2, 1)).full())
        assert [c.name for c in report.checks] == ["block1_realness"]
        assert report.passed


def loop_pairing_residuals(blocks):
    """Reference: the pairing residuals as a loop over every block k >= 1."""
    p = len(blocks)
    out = [("block1_realness", float(np.abs(blocks[0].imag).max()))]
    if p > 1:
        dev = 0.0
        for k in range(1, p):
            dev = max(dev, float(np.abs(blocks[p - k] - np.conj(blocks[k])).max()))
        out.append(("conjugate_pairing", dev))
    if p % 2 == 0 and p > 1:
        out.append(("mid_block_realness", float(np.abs(blocks[p // 2].imag).max())))
    return out


@st.composite
def stack_dims(draw, min_p=1):
    """(p, m, n) with p in min_p..12 and m, n in 1..3, plus a data seed."""
    return (draw(st.integers(min_p, 12)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.integers(0, 10**6)))


def evaluated_half(p, m, n, sample):
    """Blocks 0..p//2 drawn by ``sample(shape)``, real where real-forced."""
    half = []
    for k in range(p // 2 + 1):
        blk = sample((m, n))
        if k not in real_forced_indices(p):
            blk = blk + 1j * sample((m, n))
        half.append(blk)
    return half


class TestPairingProperties:
    @settings(max_examples=80)
    @given(stack_dims(), st.booleans(), st.integers(-5, 5))
    def test_check_matches_per_block_loop(self, dims, near_paired, scale):
        p, m, n, seed = dims
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((p, m, n)) + 1j * rng.standard_normal((p, m, n))
        if near_paired:
            blocks = mirror_blocks(blocks[:p // 2 + 1], p)
            blocks += 1e-12 * rng.standard_normal((p, m, n))
        blocks *= 10.0 ** scale
        report = check_pairing(blocks)
        got = [(c.name, c.residual) for c in report.checks]
        assert got == loop_pairing_residuals(blocks)

    @settings(max_examples=80)
    @given(stack_dims(min_p=2), st.data(), st.integers(0, 30))
    def test_perturbation_residual(self, dims, data, e):
        p, m, n, seed = dims
        rng = np.random.default_rng(seed)
        # small integers and a power-of-two eps keep the arithmetic exact
        half = evaluated_half(p, m, n, lambda s: rng.integers(-8, 9, s) * 1.0)
        blocks = mirror_blocks(half, p)
        assert check_pairing(blocks).residual("conjugate_pairing") == 0.0
        k = data.draw(st.integers(1, p - 1))
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        eps = 2.0 ** -e
        blocks[k, i, j] += 1j * eps
        expected = 2 * eps if 2 * k == p else eps
        report = check_pairing(blocks)
        assert report.residual("conjugate_pairing") == expected

    @settings(max_examples=80)
    @given(stack_dims())
    def test_to_fourier_exact_partners_and_matches_fft(self, dims):
        p, m, n, seed = dims
        t = gen(seed, m, n, p)
        blocks = to_fourier(t).full()
        for k in range(1, (p + 1) // 2):
            np.testing.assert_array_equal(blocks[p - k], np.conj(blocks[k]))
        bound = 1e3 * np.finfo(float).eps * p * t.max_abs
        assert max_abs(blocks - np.fft.fft(t.array, axis=0)) <= bound


class TestRealnessCertification:
    @settings(max_examples=80)
    @given(stack_dims(), st.data(), st.booleans())
    def test_dropped_imaginary_part_is_certified(self, dims, data, too_big):
        p, m, n, seed = dims
        t = gen(seed, m, n, p)
        fb = to_fourier(t)
        k = data.draw(st.sampled_from(real_forced_indices(p)))
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        tol = pair_tolerance(fb.max_abs)
        delta = 2 * tol if too_big else tol / 4
        blocks = fb.blocks.copy()
        blocks[k, i, j] += 1j * delta
        perturbed = FourierBlocks(blocks, p)
        if too_big:
            # irfft would ignore this block's imaginary part
            with pytest.raises(PairingViolation):
                assemble_real(perturbed)
        else:
            back, max_imag = assemble_real(perturbed)
            assert max_imag == pytest.approx(delta / p, rel=1e-6)
            assert max_abs((back - t).array) <= 1e-12 * (1 + t.max_abs)

    @settings(max_examples=120)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 9),
           st.integers(0, 10**6), st.sampled_from([0, 0.5, 2, 1e3]))
    def test_one_rule_for_assembly_and_distance(self, m, n, p, seed, c):
        # the DC and, p even, Nyquist blocks get an imaginary part of c
        # times the pairing allowance; both callers refuse it iff c > 1
        blocks = to_fourier(gen(seed, m, n, p)).blocks.copy()
        blocks[list(real_forced_indices(p))] += (
            1j * c * pair_tolerance(float(np.abs(blocks).max()))
        )
        fb = FourierBlocks(blocks, p)
        zeros = FourierBlocks(np.zeros_like(blocks), p)
        if c > 1:
            with pytest.raises(PairingViolation):
                assemble_real(fb)
            with pytest.raises(PairingViolation):
                fb.distance(zeros)
        else:
            assert fb.distance(zeros) == assemble_real(fb)[0].max_abs


class TestOneCertificate:
    """The pairing report runs only for a nonzero imaginary part that an
    inverse transform would drop, which no op or report leaves."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        original = fourier._pairing_report

        def counted(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fourier, "_pairing_report", counted)
        return made

    @pytest.mark.parametrize("p", [1, 4, 5])
    def test_ops_and_reports_make_no_pairing_report(self, calls, p):
        a = gen(40 + p, 3, 3, p)
        rect = gen(50 + p, 2, 3, p)
        for path in ("direct", "fourier"):
            tprod(a, a, path=path)
        for op in (t_svd, t_schur, t_jordan, idempotent_factorization,
                   t_drazin, unit_regular_witness):
            assert op(a).report.passed
        t_svd(rect)
        t_index(a)
        for route in ("blocks", "svd"):
            x = t_pinv(a, route=route)
            assert penrose_report(a, x).passed
            assert penrose_report(rect, t_pinv(rect, route=route)).passed
        assert inverse_report(a, t_inverse(a)).passed
        assert group_report(a, t_group(a)).passed
        assert witness_report(a, unit_regular_witness(a).w).passed
        is_t_symmetric(a, 1e-8)
        is_orthogonal(a, 1e-8)
        assert calls == []

    def test_an_imaginary_dc_part_is_certified_once(self, calls):
        blocks = to_fourier(gen(3, 3, 3, 4)).blocks.copy()
        blocks[0] += 1e-3j
        with pytest.raises(PairingViolation):
            assemble_real(FourierBlocks(blocks, 4))
        assert len(calls) == 1


class TestMirrorBlocks:
    @pytest.mark.parametrize("p", [1, 2, 5, 6])
    def test_list_and_stacked_array_agree(self, p):
        half = evaluated_half(p, 2, 3, np.random.default_rng(p).standard_normal)
        from_list = mirror_blocks(half, p)
        from_stack = mirror_blocks(np.stack(half), p)
        assert from_list.dtype == from_stack.dtype == np.complex128
        np.testing.assert_array_equal(from_list, from_stack)
        for k in range(p):
            np.testing.assert_array_equal(
                from_list[(p - k) % p], np.conj(from_list[k])
            )


class TestPairingSufficiency:
    def _synthetic_paired(self, seed, n, p):
        rng = np.random.default_rng(seed)
        blocks = []
        for k in range(p // 2 + 1):
            blk = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            if k in real_forced_indices(p):
                blk = blk.real
            blocks.append(blk)
        return FourierBlocks.from_full(mirror_blocks(blocks, p))

    def test_paired_blocks_reconstruct_real(self):
        for seed in range(50):
            p = 1 + seed % 8
            fb = self._synthetic_paired(seed, 3, p)
            t = assemble_real(fb)[0]
            assert isinstance(t, Tensor3)

    def test_broken_pairing_raises(self):
        for seed in range(20):
            p = 2 + seed % 7
            blocks = self._synthetic_paired(seed, 3, p).full()
            blocks[-1, 0, 0] += 1e-3j if p > 1 else 0
            with pytest.raises(PairingViolation):
                assemble_real(FourierBlocks.from_full(blocks))

    def test_even_p_mid_block_real(self):
        for p in (2, 4, 6, 8):
            fb = to_fourier(gen(p, 3, 3, p))
            assert max_abs(fb.blocks[p // 2].imag) <= 1e-10 * (1 + fb.max_abs)

    def test_odd_p_only_first_block_forced(self):
        for p in (3, 5, 7):
            fb = to_fourier(gen(p, 2, 2, p))
            assert real_forced_indices(p) == (0,)
            assert max_abs(fb.blocks[1].imag) > 1e-6  # generic block is complex


@st.composite
def map_cases(draw):
    """A real tensor (m, n in 1..4, p in 1..9) and an evaluated index."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p = draw(st.integers(1, 9))
    t = gen(draw(st.integers(0, 10**6)), m, n, p)
    return t, draw(st.integers(0, p // 2))


def pinv_stack(stack):
    """The pseudoinverse of every block of a stack, one block at a time."""
    return np.stack([pinv(b) for b in stack])


def map_order(fb):
    """The blocks in the order of fb.map's calls: the real-forced blocks,
    then 1..ceil(p/2)-1."""
    return list(real_forced_indices(fb.p)) + list(range(1, (fb.p + 1) // 2))


class TestMapBatches:
    """FourierBlocks.map: one call per batch, results joined over the half
    spectrum, failures named by block."""

    @settings(max_examples=60)
    @given(map_cases(), st.booleans())
    def test_failure_names_its_block(self, case, math_error):
        t, bad = case
        fb = to_fourier(t)
        target = fb.block(bad)
        exc_type = DefectiveBlock if math_error else ValueError

        def fn(stack):
            if any(np.array_equal(blk, target) for blk in stack):
                raise exc_type("boom")
            return stack

        with pytest.raises(DefectiveBlock if math_error else BlockOpError) as excinfo:
            fb.map(fn)
        assert excinfo.value.block_index == bad
        assert str(excinfo.value).count("Fourier block") == 1

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_a_programming_error_is_not_a_block_failure(self, p):
        fb = to_fourier(gen(p, 2, 2, p))

        def fn(stack):
            raise TypeError("oops")

        with pytest.raises(TypeError, match="^oops$"):
            fb.map(fn)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_identity_round_trip(self, p):
        fb = to_fourier(gen(p, 2, 3, p))
        h = p // 2 + 1
        out, ks = fb.map(lambda s, k: (s, k), np.arange(h))
        np.testing.assert_array_equal(FourierBlocks(out, p).blocks, fb.blocks)
        np.testing.assert_array_equal(ks, np.arange(h))

    @settings(max_examples=60)
    @given(map_cases(), st.booleans())
    def test_args_split_like_the_blocks(self, case, math_error):
        t, bad = case
        fb = to_fourier(t)
        h = fb.p // 2 + 1
        calls = []

        def record(stack, k):
            calls.append(list(k))
            return k

        (out,) = fb.map(record, np.arange(h))
        np.testing.assert_array_equal(out, np.arange(h))
        assert [k for ks in calls for k in ks] == map_order(fb)
        assert len(calls) == (1 if fb.p <= 2 else 2)

        exc_type = DefectiveBlock if math_error else ValueError

        def fail_at_bad(stack, k):
            if bad in k:
                raise exc_type("boom")
            return stack

        with pytest.raises(DefectiveBlock if math_error else BlockOpError) as excinfo:
            fb.map(fail_at_bad, np.arange(h))
        assert excinfo.value.block_index == bad
        assert str(excinfo.value).count("Fourier block") == 1

    def test_square_map_matches_tprod(self):
        for seed in range(10):
            t = gen(seed, 3, 3, 4)
            fb = to_fourier(t)
            (sq,) = fb.map(lambda s: s @ s)
            out = assemble_real(FourierBlocks(sq, fb.p))[0]
            expected = tprod(t, t)
            assert max_abs((out - expected).array) <= 1e-11 * (1 + t.max_abs) ** 2

    def test_pinv_map_matches_bcirc_oracle(self):
        for seed in range(5):
            t = gen(seed, 2, 3, 3)
            fb = to_fourier(t)
            (fx,) = fb.map(pinv_stack)
            x = assemble_real(FourierBlocks(fx, fb.p))[0]
            oracle = np.linalg.pinv(bcirc(t).matrix)
            assert max_abs(bcirc(x).matrix - oracle) <= 1e-9

    def test_deterministic(self):
        fb = to_fourier(gen(9, 3, 3, 6))
        (first,), (second,) = fb.map(pinv_stack), fb.map(pinv_stack)
        np.testing.assert_array_equal(first, second)

    @settings(max_examples=60)
    @given(map_cases())
    def test_mirrored_pairs_and_real_forced_blocks(self, case):
        t, _ = case
        fb = to_fourier(t)
        families = fb.map(lambda s: (s, s @ s.conj().transpose(0, 2, 1)))
        for family in families:
            out = FourierBlocks(family, fb.p)
            blocks = out.full()
            for k in range(fb.p):
                np.testing.assert_array_equal(
                    blocks[(fb.p - k) % fb.p], np.conj(blocks[k])
                )
            for k in real_forced_indices(fb.p):
                assert not out.blocks[k].imag.any()


class TestSimilarityIdentity:
    def test_bcirc_diagonalization(self):
        for seed in range(20):
            m, n, p = 2 + seed % 2, 3, 1 + seed % 6
            t = gen(seed, m, n, p)
            blocks = to_fourier(t).full()
            f = dft_matrix(p)
            diag = np.zeros((m * p, n * p), dtype=complex)
            for k in range(p):
                diag[k * m:(k + 1) * m, k * n:(k + 1) * n] = blocks[k]
            lhs = (
                np.kron(f.conj().T, np.eye(m))
                @ diag
                @ np.kron(f, np.eye(n))
            )
            assert max_abs(lhs - bcirc(t).matrix) <= 1e-11 * (1 + t.max_abs)
