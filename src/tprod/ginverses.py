"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise in the Fourier domain with conjugate
mirroring, so every output is a real tensor.  The Moore-Penrose inverse
has two routes: blockwise matrix pseudoinverses (the default, cheaper) and
the t-SVD route; their agreement is a built-in cross-check.  Every rank
decision, and the ``rtol`` keyword of every op, is relative to the
tensor's scale S = max_k sigma_1(A_k) (see :func:`kernels.rank_cutoff`).
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
from .fourier import (
    assemble_real,
    half_batches,
    join_batches,
    lift_multi,
    map_batches,
    mirrored,
    to_fourier,
)
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
    """The Fourier blocks of ``a``, their half-spectrum batches, the
    batches' singular values and the tensor's rank cutoff taken from them.
    """
    fb = to_fourier(a)
    batches = half_batches(fb)
    sigmas = map_batches(batches, kernels.singular_values)
    return fb, batches, sigmas, kernels.rank_cutoff(sigmas, a.dims, rtol)


def t_inverse(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible,
    i.e. its smallest singular value above the tensor's rank cutoff."""
    _require_square(a, "t_inverse")
    p = a.dims[2]
    _, batches, sigmas, cutoff = _half_spectrum(a, rtol)
    sigma_min = np.empty(p // 2 + 1)
    for (indices, _), sigma in zip(batches, sigmas):
        sigma_min[list(indices)] = sigma[:, -1]
    singular = np.flatnonzero(~(sigma_min > cutoff.at()))
    if singular.size:
        k = int(singular[0])
        raise Singular(
            f"not invertible (smallest singular value {sigma_min[k]:.3e})",
            block_index=k,
            sigma_min=float(sigma_min[k]),
        )
    inverses = map_batches(batches, np.linalg.inv)
    return assemble_real(join_batches(batches, inverses, p))[0]


def inverse_report(a: Tensor3, x: Tensor3, tol: float | None = None) -> ResidualReport:
    """Residuals of a*x = x*a = identity."""
    m, n, p = a.dims
    report = ResidualReport("tinv").start()
    t_gi = tol if tol is not None else gi_tolerance(a)
    eye = Tensor3.identity(n, p)
    report.add("left_inverse", np.abs((tprod(x, a) - eye).array).max(), t_gi)
    report.add("right_inverse", np.abs((tprod(a, x) - eye).array).max(), t_gi)
    return report.stop()


def t_pinv_blocks(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Moore-Penrose inverse via blockwise matrix pseudoinverses, from one
    batched SVD per half-spectrum batch."""
    batches = half_batches(to_fourier(a))
    svds = map_batches(batches, kernels.svd_reduced)
    threshold = kernels.rank_cutoff([s for _, s, _ in svds], a.dims, rtol).at()
    inverses = [kernels.pinv_from_svd(u, s, vh, threshold) for u, s, vh in svds]
    return assemble_real(join_batches(batches, inverses, a.dims[2]))[0]


def t_pinv_svd(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Moore-Penrose inverse through the t-SVD: v * pinv(s) * u^T.

    pinv(s) is assembled from the reciprocal per-block singular values
    that t_svd computed (zeros at or below the rank cutoff stay zero),
    mirrored like every other block family.
    """
    m, n, p = a.dims
    dec = t_svd(a)
    sigma = dec.fourier_singular_values[:p // 2 + 1]
    threshold = kernels.rank_cutoff([sigma], a.dims, rtol).at()
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > threshold)
    s_pinv = assemble_real(mirrored(kernels.sigma_matrices(inv, n, m), p))[0]
    return tprod(tprod(dec.v, s_pinv), transpose(dec.u))


def t_pinv(a: Tensor3, route: str = "blocks", rtol: float | None = None) -> Tensor3:
    if route == "blocks":
        return t_pinv_blocks(a, rtol)
    if route == "svd":
        return t_pinv_svd(a, rtol)
    raise ValueError(f"unknown pinv route {route!r}")


def penrose_report(a: Tensor3, x: Tensor3, tol: float | None = None) -> ResidualReport:
    """Residuals of the four Penrose equations under the t-product."""
    report = ResidualReport("pinv").start()
    t_gi = tol if tol is not None else gi_tolerance(a)
    ax = tprod(a, x)
    xa = tprod(x, a)
    report.add("axa_equals_a", np.abs((tprod(ax, a) - a).array).max(), t_gi)
    report.add("xax_equals_x", np.abs((tprod(xa, x) - x).array).max(), t_gi)
    report.add(
        "ax_t_symmetric", np.abs((ax - transpose(ax)).array).max(), t_gi
    )
    report.add(
        "xa_t_symmetric", np.abs((xa - transpose(xa)).array).max(), t_gi
    )
    return report.stop()


def _drazin_batches(a: Tensor3, rtol: float | None, fn: Callable) -> tuple:
    """The half-spectrum batches of ``a`` and ``fn(stack, cutoff, sigma)``
    on each, with the tensor's rank cutoff and the batch's singular values.
    """
    _, batches, sigmas, cutoff = _half_spectrum(a, rtol)
    return batches, map_batches(
        batches, lambda stack, sigma: fn(stack, cutoff, sigma), sigmas
    )


def t_index(a: Tensor3, rtol: float | None = None) -> int:
    """Drazin index of a tensor: largest matrix index over Fourier blocks,
    decided by the same routine as :func:`t_drazin`."""
    _require_square(a, "t_index")
    _, outs = _drazin_batches(a, rtol, kernels.drazin_indices)
    return max(int(index.max()) for index, _ in outs)


@dataclass
class DrazinResult:
    ad: Tensor3
    index: int
    report: ResidualReport


def t_drazin(a: Tensor3, rtol: float | None = None) -> DrazinResult:
    """Drazin inverse; always exists as a real tensor.

    The tensor index is the largest matrix index over the Fourier blocks
    (conjugate partners share theirs).  The blocks' indices and inverses
    come from :func:`kernels.drazin_stack`, one call per half-spectrum
    batch.
    """
    _require_square(a, "t_drazin")
    batches, outs = _drazin_batches(a, rtol, kernels.drazin_stack)
    ad = assemble_real(join_batches(batches, [x for x, _ in outs], a.dims[2]))[0]
    index = max(int(idx.max()) for _, idx in outs)
    report = drazin_report(a, ad, index)
    return DrazinResult(ad, index, report)


def drazin_report(
    a: Tensor3, ad: Tensor3, index: int, tol: float | None = None
) -> ResidualReport:
    """Residuals of the three Drazin identities at the given index."""
    report = ResidualReport("drazin").start()
    t_gi = tol if tol is not None else gi_tolerance(a)
    ak = power(a, index)
    report.add(
        "power_identity",
        np.abs((tprod(power(a, index + 1), ad) - ak).array).max(),
        t_gi,
    )
    report.add(
        "outer_identity",
        np.abs((tprod(tprod(ad, a), ad) - ad).array).max(),
        t_gi,
    )
    report.add(
        "commutation",
        np.abs((tprod(a, ad) - tprod(ad, a)).array).max(),
        t_gi,
    )
    return report.stop()


def t_group(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block,
    both ranks taken at the tensor's rank cutoff."""
    _require_square(a, "t_group")
    fb, _, _, cutoff = _half_spectrum(a, rtol)
    (out,) = lift_multi(
        fb, lambda block, k: (kernels.group_inverse(block, cutoff),)
    )
    return assemble_real(out)[0]


def group_report(a: Tensor3, g: Tensor3, tol: float | None = None) -> ResidualReport:
    """Residuals of the three group-inverse identities."""
    report = ResidualReport("group").start()
    t_gi = tol if tol is not None else gi_tolerance(a)
    report.add(
        "inner_identity",
        np.abs((tprod(tprod(a, g), a) - a).array).max(),
        t_gi,
    )
    report.add(
        "outer_identity",
        np.abs((tprod(tprod(g, a), g) - g).array).max(),
        t_gi,
    )
    report.add(
        "commutation",
        np.abs((tprod(a, g) - tprod(g, a)).array).max(),
        t_gi,
    )
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
    fb_v = to_fourier(idem.v)
    (out,) = lift_multi(
        to_fourier(idem.u),
        lambda block, k: (np.linalg.inv(fb_v.block(k)) @ np.linalg.inv(block),),
    )
    w = assemble_real(out)[0]
    report = witness_report(a, w)
    return UnitRegularWitness(w, idem.u, idem.e, idem.v, report)


def witness_report(a: Tensor3, w: Tensor3, tol: float | None = None) -> ResidualReport:
    """Residuals of the unit-regular witness identities."""
    m, n, p = a.dims
    report = ResidualReport("witness").start()
    t_gi = tol if tol is not None else gi_tolerance(a)
    report.add(
        "von_neumann",
        np.abs((tprod(tprod(a, w), a) - a).array).max(),
        t_gi,
    )
    w_inv = t_inverse(w)
    eye = Tensor3.identity(n, p)
    report.add(
        "witness_invertibility",
        np.abs((tprod(w, w_inv) - eye).array).max(),
        t_gi,
    )
    return report.stop()
