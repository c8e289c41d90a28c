"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise on the half spectrum in the Fourier
domain, which implies the conjugate partners, so every output is a real
tensor.  The Moore-Penrose inverse has two routes: blockwise matrix
pseudoinverses (the default, cheaper) and the t-SVD route; their
agreement is a built-in cross-check.  Every rank decision, and the
``rtol`` keyword of every op, is relative to the tensor's scale
S = max_k sigma_1(A_k) (see :func:`kernels.rank_cutoff`).
Residual allowances scale quadratically with the data magnitude because
the defining identities are triple products.  The reports check those
identities on the half spectra of their operands (see :mod:`tprod.report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import Tensor3, tprod, transpose
from .errors import DimensionError, MathError, Singular
from .factorizations import idempotent_factorization, t_svd
from .fourier import FourierBlocks, assemble_real, to_fourier
from .report import ResidualReport, verifying


def gi_tolerance(a: Tensor3) -> float:
    """Identity allowance: 1e-9 * (1 + max|entry|)^2 * p.  Beyond the
    float64 range, from max|entry| of about 1.3e154 on, it is a
    MathError."""
    m, n, p = a.dims
    try:
        return 1e-9 * (1.0 + a.max_abs) ** 2 * p
    except OverflowError:  # a Python float power raises, not returns inf
        raise MathError(
            "the identity allowance overflowed the float64 range"
        ) from None


def _require_square(a: Tensor3 | FourierBlocks, name: str) -> None:
    m, n, p = a.dims
    if m != n:
        raise DimensionError(f"{name} requires square slices, got {m}x{n}")


def _spectrum_cutoff(fb: FourierBlocks, rtol: float | None):
    """The singular values of the Fourier blocks and the tensor's rank
    cutoff taken from them."""
    (sigma,) = fb.map(kernels.singular_values)
    return sigma, kernels.rank_cutoff(sigma, fb.dims, rtol)


def blockwise_inverse(
    fb: FourierBlocks, rtol: float | None = None
) -> tuple[FourierBlocks, np.ndarray]:
    """The half spectrum of the t-inverse, and the singular values of the
    blocks that decided it exists: every block's smallest singular value
    must lie above the tensor's rank cutoff, or Singular names the first
    block where it does not."""
    _require_square(fb, "t_inverse")
    sigma, cutoff = _spectrum_cutoff(fb, rtol)
    sigma_min = sigma[:, -1]
    singular = np.flatnonzero(~(sigma_min > cutoff.at()))
    if singular.size:
        k = int(singular[0])
        raise Singular(
            f"not invertible (smallest singular value {sigma_min[k]:.3e})",
            block_index=k,
            sigma_min=float(sigma_min[k]),
        )
    return FourierBlocks(*fb.map(np.linalg.inv), fb.p), sigma


def t_inverse(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible,
    i.e. its smallest singular value above the tensor's rank cutoff."""
    return assemble_real(blockwise_inverse(to_fourier(a), rtol)[0])[0]


@verifying
def inverse_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of a*x = x*a = identity."""
    m, n, p = a.dims
    report = ResidualReport("tinv").start()
    t_gi = gi_tolerance(a)
    fa, fx = to_fourier(a), to_fourier(x)
    eye = FourierBlocks.identity(n, p)
    report.add_identity("left_inverse", fx @ fa, eye, t_gi)
    report.add_identity("right_inverse", fa @ fx, eye, t_gi)
    return report.stop()


def t_pinv_blocks(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Moore-Penrose inverse via blockwise matrix pseudoinverses, from the
    thin SVDs of the half spectrum."""
    p = a.dims[2]
    u, sigma, vh = to_fourier(a).map(kernels.svd_reduced)
    threshold = kernels.rank_cutoff(sigma, a.dims, rtol).at()
    (x,) = FourierBlocks(u, p).map(
        lambda u, s, vh: kernels.pinv_from_svd(u, s, vh, threshold), sigma, vh
    )
    return assemble_real(FourierBlocks(x, p))[0]


def t_pinv_svd(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Moore-Penrose inverse through the t-SVD: v * pinv(s) * u^T.

    pinv(s) is assembled from the reciprocal per-block singular values
    that t_svd computed for blocks 0..floor(p/2) (zeros at or below the
    rank cutoff stay zero).
    """
    m, n, p = a.dims
    dec = t_svd(a)
    sigma = dec.fourier_singular_values[:p // 2 + 1]
    threshold = kernels.rank_cutoff(sigma, a.dims, rtol).at()
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > threshold)
    s_pinv = assemble_real(FourierBlocks(kernels.sigma_matrices(inv, n, m), p))[0]
    return tprod(tprod(dec.v, s_pinv), transpose(dec.u))


def t_pinv(a: Tensor3, route: str = "blocks", rtol: float | None = None) -> Tensor3:
    if route == "blocks":
        return t_pinv_blocks(a, rtol)
    if route == "svd":
        return t_pinv_svd(a, rtol)
    raise ValueError(f"unknown pinv route {route!r}")


@verifying
def penrose_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of the four Penrose equations under the t-product."""
    report = ResidualReport("pinv").start()
    t_gi = gi_tolerance(a)
    fa, fx = to_fourier(a), to_fourier(x)
    ax = fa @ fx
    xa = fx @ fa
    report.add_identity("axa_equals_a", ax @ fa, fa, t_gi)
    report.add_identity("xax_equals_x", xa @ fx, fx, t_gi)
    report.add_identity("ax_t_symmetric", ax, ax.T, t_gi)
    report.add_identity("xa_t_symmetric", xa, xa.T, t_gi)
    return report.stop()


def _drazin_blocks(a: Tensor3, rtol: float | None, fn: Callable) -> tuple:
    """The Fourier blocks of ``a``, the tensor's rank cutoff and
    ``fn(blocks, cutoff, sigma)`` over them, with their singular values."""
    fb = to_fourier(a)
    sigma, cutoff = _spectrum_cutoff(fb, rtol)
    return fb, cutoff, fb.map(lambda blocks, s: fn(blocks, cutoff, s), sigma)


def t_index(a: Tensor3, rtol: float | None = None) -> int:
    """Drazin index of a tensor: largest matrix index over Fourier blocks,
    decided by the same routine as :func:`t_drazin`."""
    _require_square(a, "t_index")
    *_, (index,) = _drazin_blocks(
        a, rtol, lambda *args: kernels.drazin_indices(*args)[0]
    )
    return int(index.max())


@dataclass
class DrazinResult:
    ad: Tensor3
    index: int
    report: ResidualReport


def t_drazin(a: Tensor3, rtol: float | None = None) -> DrazinResult:
    """Drazin inverse; always exists as a real tensor.

    The tensor index is the largest matrix index over the Fourier blocks
    (conjugate partners share theirs).  The blocks' indices and inverses
    come from :func:`kernels.drazin_stack` on the half spectrum, which
    inverts the blocks of index 0 as :func:`t_inverse` does; on an
    invertible tensor the result is the t-inverse, bit for bit.
    """
    _require_square(a, "t_drazin")
    fb, _, (x, index) = _drazin_blocks(a, rtol, kernels.drazin_stack)
    ad = assemble_real(FourierBlocks(x, fb.p))[0]
    index = int(index.max())
    report = drazin_report(a, ad, index)
    return DrazinResult(ad, index, report)


@verifying
def drazin_report(a: Tensor3, ad: Tensor3, index: int) -> ResidualReport:
    """Residuals of the three Drazin identities at the given index."""
    report = ResidualReport("drazin").start()
    t_gi = gi_tolerance(a)
    fa, fd = to_fourier(a), to_fourier(ad)
    ak = fa.power(index)
    report.add_identity("power_identity", ak @ fa @ fd, ak, t_gi)
    da = fd @ fa
    report.add_identity("outer_identity", da @ fd, fd, t_gi)
    report.add_identity("commutation", fa @ fd, da, t_gi)
    return report.stop()


def t_group(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block,
    both ranks taken at the tensor's rank cutoff: a Drazin index of at
    most 1.  It is then the Drazin inverse, so both come from the block
    map of :func:`t_drazin` (on an invertible tensor, the t-inverse bit for
    bit); a failure names the first block of larger index."""
    _require_square(a, "t_group")
    fb, cutoff, (x, index) = _drazin_blocks(a, rtol, kernels.drazin_stack)
    bad = np.flatnonzero(index > 1)
    if bad.size:
        k = int(bad[0])
        exc = kernels.no_group_inverse(fb.block(k), cutoff)
        exc.block_index = k
        raise exc
    return assemble_real(FourierBlocks(x, fb.p))[0]


@verifying
def group_report(a: Tensor3, g: Tensor3) -> ResidualReport:
    """Residuals of the three group-inverse identities."""
    report = ResidualReport("group").start()
    t_gi = gi_tolerance(a)
    fa, fg = to_fourier(a), to_fourier(g)
    ag, ga = fa @ fg, fg @ fa
    report.add_identity("inner_identity", ag @ fa, fa, t_gi)
    report.add_identity("outer_identity", ga @ fg, fg, t_gi)
    report.add_identity("commutation", ag, ga, t_gi)
    return report.stop()


@dataclass
class UnitRegularWitness:
    w: Tensor3
    u: Tensor3
    e: Tensor3
    v: Tensor3
    report: ResidualReport


def unit_regular_witness(
    a: Tensor3, rtol: float | None = None
) -> UnitRegularWitness:
    """Invertible von Neumann inverse w with a * w * a = a.

    Derived from the idempotent factorization a = u * e * v as
    w = v^{-1} * u^{-1}; w is t-invertible by construction, which is what
    makes every element of the square t-product ring unit regular.
    """
    _require_square(a, "unit_regular_witness")
    idem = idempotent_factorization(a, rtol)
    fu = to_fourier(idem.u)
    (w,) = fu.map(
        lambda u, v: np.linalg.inv(v) @ np.linalg.inv(u),
        to_fourier(idem.v).blocks,
    )
    w = assemble_real(FourierBlocks(w, fu.p))[0]
    report = witness_report(a, w)
    return UnitRegularWitness(w, idem.u, idem.e, idem.v, report)


@verifying
def witness_report(a: Tensor3, w: Tensor3) -> ResidualReport:
    """Residuals of the unit-regular witness identities."""
    m, n, p = a.dims
    report = ResidualReport("witness").start()
    t_gi = gi_tolerance(a)
    fa, fw = to_fourier(a), to_fourier(w)
    report.add_identity("von_neumann", fa @ fw @ fa, fa, t_gi)
    w_inv, _ = blockwise_inverse(fw)
    report.add_identity(
        "witness_invertibility", fw @ w_inv, FourierBlocks.identity(n, p), t_gi
    )
    return report.stop()
