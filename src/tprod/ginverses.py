"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise in the Fourier domain with conjugate
mirroring, so every output is a real tensor.  The Moore-Penrose inverse
has two routes: blockwise matrix pseudoinverses (the default, cheaper) and
the t-SVD route; their agreement is a built-in cross-check.  Residual
allowances scale quadratically with the data magnitude because the
defining identities are triple products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Tensor3, power, tprod, transpose
from .errors import DimensionError, Singular
from .factorizations import IdempotentFactorization, idempotent_factorization, t_svd
from .fourier import assemble_real, lift_multi, mirrored, to_fourier
from .report import ResidualReport


def gi_tolerance(a: Tensor3) -> float:
    """Identity allowance: 1e-9 * (1 + max|entry|)^2 * p."""
    m, n, p = a.dims
    return 1e-9 * (1.0 + a.max_abs) ** 2 * p


def _require_square(a: Tensor3, name: str) -> None:
    m, n, p = a.dims
    if m != n:
        raise DimensionError(f"{name} requires square slices, got {m}x{n}")


def t_inverse(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible."""
    _require_square(a, "t_inverse")

    def op(block, k):
        sigma = np.linalg.svd(block, compute_uv=False)
        cutoff = (rtol if rtol is not None
                  else kernels.default_rank_rtol(block)) * sigma[0]
        if sigma[0] == 0.0 or sigma[-1] <= cutoff:
            raise Singular(
                f"not invertible (smallest singular value {sigma[-1]:.3e})",
                sigma_min=float(sigma[-1]),
            )
        return (np.linalg.inv(block),)

    (out,) = lift_multi(to_fourier(a), op)
    return assemble_real(out)[0]


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
    """Moore-Penrose inverse via blockwise matrix pseudoinverses."""
    (out,) = lift_multi(
        to_fourier(a), lambda block, k: (kernels.mp_inverse(block, rtol),)
    )
    return assemble_real(out)[0]


def t_pinv_svd(a: Tensor3, rtol: float | None = None) -> Tensor3:
    """Moore-Penrose inverse through the t-SVD: v * pinv(s) * u^T.

    pinv(s) is assembled from the reciprocal per-block singular values
    (zeros below the rank cutoff stay zero), mirrored like every other
    block family.
    """
    m, n, p = a.dims
    dec = t_svd(a)
    blocks = []
    for k in range(p // 2 + 1):
        sigma = dec.fourier_singular_values[k]
        smax = sigma.max(initial=0.0)
        cutoff = (rtol if rtol is not None
                  else max(m, n) * np.finfo(np.float64).eps) * smax
        inv = np.where(sigma > cutoff, 1.0, 0.0)
        inv = np.divide(inv, sigma, out=np.zeros_like(sigma), where=inv > 0)
        block = np.zeros((n, m))
        np.fill_diagonal(block, inv)
        blocks.append(block)
    s_pinv = assemble_real(mirrored(blocks, p))[0]
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


def t_index(a: Tensor3, rtol: float | None = None) -> int:
    """Drazin index of a tensor: largest matrix index over Fourier blocks."""
    _require_square(a, "t_index")
    fb = to_fourier(a)
    return max(kernels.matrix_index(fb.block(k), rtol) for k in fb.evaluated)


@dataclass
class DrazinResult:
    ad: Tensor3
    index: int
    report: ResidualReport


def t_drazin(a: Tensor3, rtol: float | None = None) -> DrazinResult:
    """Drazin inverse; always exists as a real tensor.

    The tensor index is the largest matrix index over the Fourier blocks
    (conjugate partners share theirs).
    """
    _require_square(a, "t_drazin")
    fb = to_fourier(a)
    indices: list[int] = []

    def op(block, k):
        mat, idx = kernels.drazin_inverse(block, rtol)
        indices.append(idx)
        return (mat,)

    (out,) = lift_multi(fb, op)
    ad = assemble_real(out)[0]
    index = max(indices)
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
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block."""
    _require_square(a, "t_group")
    (out,) = lift_multi(
        to_fourier(a), lambda block, k: (kernels.group_inverse(block, rtol),)
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
