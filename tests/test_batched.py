"""The block engine and the tensor-scale rank cutoff.

Every op, Schur included, decomposes the half spectrum through
``FourierBlocks.map``, one stacked kernel call for the real-forced blocks
and one for the complex blocks.  These tests hold the ops to a reference
that does not use that engine: an explicit loop over matrix kernels on
blocks 0..p//2 and ``np.fft.irfft``, with the same cutoff; the Schur
reference loops ``scipy.linalg.schur`` itself.  They also check run-to-run
determinism and rank decisions that do not move when the tensor is scaled.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    BlockOpError,
    ConvergenceError,
    FourierBlocks,
    GroupInverseNotExist,
    MathError,
    Tensor3,
    gen,
    scalar_mul,
    t_drazin,
    t_group,
    t_index,
    t_jordan,
    t_pinv,
    t_schur,
    t_svd,
    to_fourier,
    transpose,
    unit_regular_witness,
)
from tprod import kernels
from tprod.factorizations import idempotent_factorization
from tprod.generate import KINDS

from conftest import max_abs


@st.composite
def tensors(draw, square=False, kinds=KINDS):
    """A generated tensor with m, n in 1..4 and p in 1..9."""
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(1, 4))
    n = m if square or kind == "t_symmetric" else draw(st.integers(1, 4))
    return gen(draw(st.integers(0, 10**6)), m, n, draw(st.integers(1, 9)), kind)


def half_blocks(a):
    """Blocks 0..p//2 of ``a``, real on the real-forced indices 0 and p/2."""
    p = a.dims[2]
    half = np.fft.rfft(a.array, axis=0)
    return [half[k].real if k in (0, p / 2) else half[k] for k in range(len(half))]


def loop_cutoff(a):
    """The tensor's cutoff from a loop of per-block singular values."""
    sigma = np.stack([kernels.singular_values(block) for block in half_blocks(a)])
    return kernels.rank_cutoff(sigma, a.dims)


def loop_map(kernel, *tensors):
    """Real tensors from ``kernel(*blocks)`` on blocks 0..p//2 of each of
    ``tensors``, by an explicit loop and ``np.fft.irfft``.

    ``kernel`` returns a tuple of matrices.  A MathError it raises comes
    out naming the block of the loop's first failure.
    """
    p = tensors[0].dims[2]
    families = []
    for k, blocks in enumerate(zip(*map(half_blocks, tensors))):
        try:
            families.append(kernel(*blocks))
        except MathError as exc:
            exc.block_index = k
            raise
    return [Tensor3(np.fft.irfft(np.stack(f), n=p, axis=0)) for f in zip(*families)]


def loop_or_error(kernel, *tensors):
    """:func:`loop_map`, or the MathError it raises."""
    try:
        return loop_map(kernel, *tensors)
    except MathError as exc:
        return exc


def assert_same_error(op, expected):
    """``op()`` raises the class of ``expected``, naming the same block."""
    with pytest.raises(type(expected)) as excinfo:
        op()
    assert excinfo.value.block_index == expected.block_index


def schur_kernel(block):
    """scipy's Schur form of a block, real and 1x1 blocks first on the
    real-forced blocks: a reference outside tprod's own kernel."""
    if np.iscomplexobj(block):
        t, u = scipy.linalg.schur(block, output="complex")
    else:
        t, u, _ = scipy.linalg.schur(block, output="real",
                                     sort=lambda x, y: y == 0)
    return u, t


def eigh_kernel(block):
    """numpy's eigendecomposition of a Hermitian block, eigenvalues
    nondecreasing and each eigenvector's largest-magnitude entry real
    positive: the reference of the Hermitian route."""
    w, v = np.linalg.eigh(block)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(len(w))]
    return v * (np.abs(pivot) / pivot), np.diag(w)


def jordan_kernel(block):
    if np.iscomplexobj(block):
        dec = kernels.jordan_complex(block)
    else:
        dec = kernels.jordan_real(block)
    return dec.p, dec.j


def assert_rel_close(x, ref, rtol=1e-12):
    assert max_abs(x.array - ref.array) <= rtol * max_abs(ref.array)


class TestMatchesBlockLoop:
    @settings(max_examples=60)
    @given(tensors())
    def test_pinv(self, a):
        cutoff = loop_cutoff(a)
        (ref,) = loop_map(lambda b: (kernels.mp_inverse(b, cutoff),), a)
        assert_rel_close(t_pinv(a), ref)

    @settings(max_examples=60)
    @given(tensors())
    def test_svd_factors_and_phase_convention(self, a):
        def kernel(block):
            dec = kernels.svd(block)
            return dec.u, dec.sigma_matrix(), dec.v

        u, s, v = loop_map(kernel, a)
        dec = t_svd(a)
        assert dec.report.passed
        assert_rel_close(dec.u, u)
        assert_rel_close(dec.s, s)
        assert_rel_close(dec.v, v)

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_drazin(self, a):
        cutoff = loop_cutoff(a)
        indices = [kernels.drazin_inverse(block, cutoff)[1]
                   for block in half_blocks(a)]
        (ref,) = loop_map(lambda b: (kernels.drazin_inverse(b, cutoff)[0],), a)
        result = t_drazin(a)
        assert result.index == t_index(a) == max(indices)
        assert_rel_close(result.ad, ref)

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_group(self, a):
        cutoff = loop_cutoff(a)
        ref = loop_or_error(lambda b: (kernels.group_inverse(b, cutoff),), a)
        if isinstance(ref, GroupInverseNotExist):
            assert_same_error(lambda: t_group(a), ref)
        else:
            assert_rel_close(t_group(a), ref[0])

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_unit_regular_witness(self, a):
        idem = idempotent_factorization(a)
        (ref,) = loop_map(
            lambda u, v: (np.linalg.inv(v) @ np.linalg.inv(u),), idem.u, idem.v
        )
        assert_rel_close(unit_regular_witness(a).w, ref)

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_schur(self, a):
        # an exactly t-symmetric tensor takes the Hermitian route
        kernel = eigh_kernel if a == transpose(a) else schur_kernel
        u, t = loop_map(kernel, a)
        dec = t_schur(a)
        assert_rel_close(dec.u, u)
        assert_rel_close(dec.t, t)

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_jordan(self, a):
        ref = loop_or_error(jordan_kernel, a)
        if isinstance(ref, MathError):
            assert_same_error(lambda: t_jordan(a), ref)
            return
        dec = t_jordan(a)
        assert_rel_close(dec.p, ref[0])
        assert_rel_close(dec.j, ref[1])


class TestOneUlpFromSymmetry:
    """A t-symmetric tensor with one entry moved by one ulp is not
    t-symmetric: it takes the general route and matches the scipy loop."""

    @pytest.mark.parametrize("n, p, at", [
        (2, 1, (0, 0, 1)),
        (3, 4, (0, 2, 0)),
        (3, 5, (1, 1, 1)),
        (4, 6, (3, 0, 3)),
    ])
    def test_schur_takes_the_general_route(self, monkeypatch, n, p, at):
        data = gen(n + p, n, n, p, "t_symmetric").array.copy()
        data[at] = np.nextafter(data[at], np.inf)
        a = Tensor3(data)
        # the Hermitian route would now fail as a BlockOpError
        monkeypatch.setattr(kernels, "hermitian_stack", None)
        u, t = loop_map(schur_kernel, a)
        dec = t_schur(a)
        assert dec.report.passed
        assert_rel_close(dec.u, u)
        assert_rel_close(dec.t, t)


@st.composite
def nilpotent_blocks(draw):
    """A 3x3xp tensor whose Fourier blocks at a drawn set of indices in
    0..p//2 are strictly upper triangular (index 3), and the least of them.
    """
    p = draw(st.integers(1, 9))
    h = p // 2 + 1
    bad = draw(st.sets(st.integers(0, h - 1), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    half = rng.standard_normal((h, 3, 3)) + 1j * rng.standard_normal((h, 3, 3))
    for k in bad:
        half[k] = np.triu(half[k], 1)
    half[0] = half[0].real
    if p % 2 == 0:
        half[-1] = half[-1].real
    return Tensor3(np.fft.irfft(half, n=p, axis=0)), min(bad)


class TestFailureNamesFirstBlock:
    @settings(max_examples=60)
    @given(nilpotent_blocks())
    def test_group_and_jordan(self, case):
        a, first = case
        cutoff = loop_cutoff(a)
        ref = loop_or_error(lambda b: (kernels.group_inverse(b, cutoff),), a)
        assert isinstance(ref, GroupInverseNotExist)
        assert ref.block_index == first
        assert_same_error(lambda: t_group(a), ref)
        # the eigenvalues of a perturbed nilpotent block spread by about
        # eps^(1/3), so the Jordan kernel finds the defect only on some
        ref = loop_or_error(jordan_kernel, a)
        if isinstance(ref, MathError):
            assert_same_error(lambda: t_jordan(a), ref)
class TestDeterminism:
    @settings(max_examples=30)
    @given(tensors(square=True))
    def test_two_runs_are_array_equal(self, a):
        def run():
            dec = t_svd(a)
            drazin = t_drazin(a)
            return [dec.u.array, dec.s.array, dec.v.array,
                    dec.fourier_singular_values,
                    t_pinv(a, route="blocks").array,
                    t_pinv(a, route="svd").array,
                    drazin.ad.array, np.array([drazin.index, t_index(a)])]

        for first, second in zip(run(), run()):
            np.testing.assert_array_equal(first, second)


@st.composite
def scaled_rank_deficient(draw, square, max_exponent):
    """A rank-deficient tensor, the same tensor times 10^e, and 10^e."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    a = gen(draw(st.integers(0, 10**6)), m, n, draw(st.integers(1, 9)),
            "rank_deficient")
    c = 10.0 ** draw(st.integers(-max_exponent, max_exponent))
    return a, scalar_mul(c, a), c


def generated_rank(a):
    """Every Fourier block of gen(..., "rank_deficient") is a product of
    an m x ceil(n/2) and a ceil(n/2) x n random block."""
    m, n, _ = a.dims
    return min(m, math.ceil(n / 2))


class TestScaleInvariantRank:
    @settings(max_examples=60)
    @given(scaled_rank_deficient(square=False, max_exponent=150))
    def test_svd_ops(self, case):
        a, ca, c = case
        sigma = t_svd(ca).fourier_singular_values
        cutoff = kernels.rank_cutoff(sigma, ca.dims)
        assert (cutoff.rank(sigma) == generated_rank(a)).all()
        # a noise singular value counted at one scale and not the other
        # would differ by about 1/eps
        for route in ("blocks", "svd"):
            x = t_pinv(a, route=route)
            xc = scalar_mul(c, t_pinv(ca, route=route))
            assert_rel_close(xc, x, rtol=1e-6)

    @settings(max_examples=60)
    @given(scaled_rank_deficient(square=True, max_exponent=30))
    def test_drazin_and_index(self, case):
        a, ca, c = case
        n = a.dims[1]
        expected = 0 if generated_rank(a) == n else 1
        result = t_drazin(ca)
        assert result.index == t_index(ca) == expected
        assert_rel_close(scalar_mul(c, result.ad), t_drazin(a).ad, rtol=1e-6)


@st.composite
def blocks_with_nan(draw):
    """FourierBlocks with a NaN at a drawn block k in 0..p//2, and k."""
    p = draw(st.integers(1, 9))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, p // 2))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    half = rng.standard_normal((p // 2 + 1, n, n)) * (1 + 1j)
    half[k, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = np.nan
    return FourierBlocks(half, p), k


class TestBatchedFailureNamesBlock:
    @settings(max_examples=60)
    @given(blocks_with_nan())
    def test_schur_non_finite_block(self, case):
        fb, k = case
        with pytest.raises(BlockOpError) as excinfo:
            fb.map(kernels.schur_stack)
        assert excinfo.value.block_index == k

    @pytest.mark.parametrize("p, bad", [(5, 0), (5, 2), (6, 3), (8, 1)])
    def test_svd_convergence_failure(self, monkeypatch, p, bad):
        a = gen(p, 3, 3, p)
        target = to_fourier(a).block(bad)
        real_svd = np.linalg.svd

        def failing_svd(x, *args, **kwargs):
            if any(np.array_equal(blk, target) for blk in np.reshape(x, (-1, 3, 3))):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceError) as excinfo:
            t_svd(a)
        assert excinfo.value.block_index == bad
        assert str(excinfo.value).count(f"Fourier block {bad}") == 1
