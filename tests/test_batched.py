"""Batched block kernels and the tensor-scale rank cutoff.

The SVD, pseudoinverse and Drazin ops decompose the half spectrum in one
batched call per batch (real-forced blocks, complex blocks).  These tests
hold them to a per-block loop over the matrix kernels with the same
cutoff, to run-to-run determinism, and to rank decisions that do not move
when the tensor is scaled.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    ConvergenceError,
    assemble_real,
    gen,
    lift_multi,
    scalar_mul,
    t_drazin,
    t_index,
    t_pinv,
    t_svd,
    to_fourier,
)
from tprod import kernels
from tprod.generate import KINDS

from conftest import max_abs


@st.composite
def tensors(draw, square=False, kinds=KINDS):
    """A generated tensor with m, n in 1..4 and p in 1..9."""
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(1, 4))
    n = m if square or kind == "t_symmetric" else draw(st.integers(1, 4))
    return gen(draw(st.integers(0, 10**6)), m, n, draw(st.integers(1, 9)), kind)


def loop_cutoff(a):
    """The tensor's cutoff from a loop of per-block singular values."""
    fb = to_fourier(a)
    sigmas = [kernels.singular_values(fb.block(k)) for k in fb.evaluated]
    return kernels.rank_cutoff(sigmas, a.dims)


def loop_map(a, kernel):
    """Real tensors from ``kernel(block)`` on each block 0..p//2."""
    outs = lift_multi(to_fourier(a), lambda block, k: kernel(block))
    return [assemble_real(out)[0] for out in outs]


def assert_rel_close(x, ref, rtol=1e-12):
    assert max_abs(x.array - ref.array) <= rtol * max_abs(ref.array)


class TestMatchesBlockLoop:
    @settings(max_examples=60)
    @given(tensors())
    def test_pinv(self, a):
        cutoff = loop_cutoff(a)
        (ref,) = loop_map(a, lambda b: (kernels.mp_inverse(b, cutoff),))
        assert_rel_close(t_pinv(a), ref)

    @settings(max_examples=60)
    @given(tensors())
    def test_svd_factors_and_phase_convention(self, a):
        def kernel(block):
            dec = kernels.svd(block)
            return dec.u, dec.sigma_matrix(), dec.v

        u, s, v = loop_map(a, kernel)
        dec = t_svd(a)
        assert dec.report.passed
        assert_rel_close(dec.u, u)
        assert_rel_close(dec.s, s)
        assert_rel_close(dec.v, v)

    @settings(max_examples=60)
    @given(tensors(square=True))
    def test_drazin(self, a):
        cutoff = loop_cutoff(a)
        fb = to_fourier(a)
        indices = [kernels.drazin_inverse(fb.block(k), cutoff)[1]
                   for k in fb.evaluated]
        (ref,) = loop_map(a, lambda b: (kernels.drazin_inverse(b, cutoff)[0],))
        result = t_drazin(a)
        assert result.index == t_index(a) == max(indices)
        assert_rel_close(result.ad, ref)


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
        cutoff = kernels.rank_cutoff([sigma], ca.dims)
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


class TestBatchedFailureNamesBlock:
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
