"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise on the half spectrum in the Fourier
domain, which implies the conjugate partners, so every output is a real
tensor.  The Moore-Penrose inverse has two routes: blockwise matrix
pseudoinverses (the default, cheaper) and the t-SVD route; their
agreement is a built-in cross-check.  Every rank decision, and the
``rtol`` keyword of every op, is relative to the tensor's scale
S = max_k sigma_1(A_k) (see :func:`kernels.rank_cutoff`).
Residual allowances scale quadratically with the data magnitude because
the defining identities are triple products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import Tensor3, power, tprod, transpose
from .errors import DimensionError, Singular
from .factorizations import IdempotentFactorization, idempotent_factorization, t_svd
from .fourier import FourierBlocks, assemble_real, to_fourier
from .report import ResidualReport


def gi_tolerance(a: Tensor3) -> float:
    """Identity allowance: 1e-9 * (1 + max|entry|)^2 * p."""
    m, n, p = a.dims
    return 1e-9 * (1.0 + a.max_abs) ** 2 * p


def _require_square(a: Tensor3, name: str) -> None:
    m, n, p = a.dims
    if m != n:
        raise DimensionError(f"{name} requires square slices, got {m}x{n}")


def _half_spectrum(a: Tensor3, rtol: float | None):
    """The Fourier blocks of ``a``, their singular values and the tensor's
    rank cutoff taken from them."""
    fb = to_fourier(a)
    (sigma,) = fb.map(kernels.singular_values)
    return fb, sigma, kernels.rank_cutoff(sigma, a.dims, rtol)


def t_inverse(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible,
    i.e. its smallest singular value above the tensor's rank cutoff."""
    _require_square(a, "t_inverse")
    fb, sigma, cutoff = _half_spectrum(a, rtol)
    sigma_min = sigma[:, -1]
    singular = np.flatnonzero(~(sigma_min > cutoff.at()))
    if singular.size:
        k = int(singular[0])
        raise Singular(
            f"not invertible (smallest singular value {sigma_min[k]:.3e})",
            block_index=k,
            sigma_min=float(sigma_min[k]),
        )
    return assemble_real(FourierBlocks(*fb.map(np.linalg.inv), fb.p))[0]


def inverse_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of a*x = x*a = identity."""
    m, n, p = a.dims
    report = ResidualReport("tinv").start()
    t_gi = gi_tolerance(a)
    eye = Tensor3.identity(n, p)
    report.add_identity("left_inverse", tprod(x, a), eye, t_gi)
    report.add_identity("right_inverse", tprod(a, x), eye, t_gi)
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


def penrose_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of the four Penrose equations under the t-product."""
    report = ResidualReport("pinv").start()
    t_gi = gi_tolerance(a)
    ax = tprod(a, x)
    xa = tprod(x, a)
    report.add_identity("axa_equals_a", tprod(ax, a), a, t_gi)
    report.add_identity("xax_equals_x", tprod(xa, x), x, t_gi)
    report.add_identity("ax_t_symmetric", ax, transpose(ax), t_gi)
    report.add_identity("xa_t_symmetric", xa, transpose(xa), t_gi)
    return report.stop()


def _drazin_blocks(a: Tensor3, rtol: float | None, fn: Callable) -> tuple:
    """The Fourier blocks of ``a``, the tensor's rank cutoff and
    ``fn(blocks, cutoff, sigma)`` over them, with their singular values."""
    fb, sigma, cutoff = _half_spectrum(a, rtol)
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
    come from :func:`kernels.drazin_stack` on the half spectrum.
    """
    _require_square(a, "t_drazin")
    fb, _, (x, index) = _drazin_blocks(a, rtol, kernels.drazin_stack)
    ad = assemble_real(FourierBlocks(x, fb.p))[0]
    index = int(index.max())
    report = drazin_report(a, ad, index)
    return DrazinResult(ad, index, report)


def drazin_report(a: Tensor3, ad: Tensor3, index: int) -> ResidualReport:
    """Residuals of the three Drazin identities at the given index."""
    report = ResidualReport("drazin").start()
    t_gi = gi_tolerance(a)
    ak = power(a, index)
    report.add_identity("power_identity", tprod(tprod(ak, a), ad), ak, t_gi)
    report.add_identity("outer_identity", tprod(tprod(ad, a), ad), ad, t_gi)
    report.add_identity("commutation", tprod(a, ad), tprod(ad, a), t_gi)
    return report.stop()


def t_group(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block,
    both ranks taken at the tensor's rank cutoff: a Drazin index of at
    most 1.  It is then the Drazin inverse, so both come from the block
    map of :func:`t_drazin`; a failure names the first block of larger
    index."""
    _require_square(a, "t_group")
    fb, cutoff, (x, index) = _drazin_blocks(a, rtol, kernels.drazin_stack)
    bad = np.flatnonzero(index > 1)
    if bad.size:
        k = int(bad[0])
        exc = kernels.no_group_inverse(fb.block(k), cutoff)
        exc.block_index = k
        raise exc
    return assemble_real(FourierBlocks(x, fb.p))[0]


def group_report(a: Tensor3, g: Tensor3) -> ResidualReport:
    """Residuals of the three group-inverse identities."""
    report = ResidualReport("group").start()
    t_gi = gi_tolerance(a)
    report.add_identity("inner_identity", tprod(tprod(a, g), a), a, t_gi)
    report.add_identity("outer_identity", tprod(tprod(g, a), g), g, t_gi)
    report.add_identity("commutation", tprod(a, g), tprod(g, a), t_gi)
    return report.stop()


@dataclass
class UnitRegularWitness:
    w: Tensor3
    u: Tensor3
    e: Tensor3
    v: Tensor3
    report: ResidualReport

    @property
    def factorization(self) -> IdempotentFactorization:
        return IdempotentFactorization(self.u, self.e, self.v, self.report)


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


def witness_report(a: Tensor3, w: Tensor3) -> ResidualReport:
    """Residuals of the unit-regular witness identities."""
    m, n, p = a.dims
    report = ResidualReport("witness").start()
    t_gi = gi_tolerance(a)
    report.add_identity("von_neumann", tprod(tprod(a, w), a), a, t_gi)
    report.add_identity(
        "witness_invertibility", tprod(w, t_inverse(w)), Tensor3.identity(n, p), t_gi
    )
    return report.stop()
