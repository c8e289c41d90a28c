"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise on the half spectrum in the Fourier
domain, which implies the conjugate partners, so every output is a real
tensor.  The Moore-Penrose inverse has two routes, blockwise matrix
pseudoinverses from thin SVDs and the t-SVD route from full ones; their
agreement is a built-in cross-check, and :func:`penrose_report`
certifies either.  Every rank decision is relative to the tensor's scale
S = max_k sigma_1(A_k) (see :func:`kernels.rank_cutoff`).
:func:`t_index`, :func:`t_drazin` and :func:`t_group` decide Drazin index
0 once per tensor, by the test :func:`t_inverse` decides invertibility
by, so on an invertible tensor they run its block map and nothing else.
Residual allowances scale quadratically with the data magnitude because
the defining identities are triple products.  The reports check those
identities on the half spectra of their operands (see :mod:`tprod.report`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Tensor3, _require_square
from .errors import MathError, Singular
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


def _spectrum_cutoff(fb: FourierBlocks):
    """The singular values of the Fourier blocks and the tensor's rank
    cutoff taken from them."""
    (sigma,) = fb.map(kernels.singular_values)
    return sigma, kernels.rank_cutoff(sigma, fb.dims)


def _inverse_if_invertible(fb: FourierBlocks, sigma: np.ndarray,
                           cutoff: kernels.RankCutoff) -> tuple:
    """``(blocks, None)``: the inverse of every Fourier block, by one
    stacked LU ``inv`` per batch, when each block's smallest singular value
    ``sigma`` lies above the cutoff (:meth:`~kernels.RankCutoff.invertible`);
    else ``(None, k)`` with k the first block that fails.  The one
    invertible route of :func:`t_inverse`, :func:`t_drazin` and
    :func:`t_group`."""
    singular = np.flatnonzero(~cutoff.invertible(sigma))
    if singular.size:
        return None, int(singular[0])
    return fb.map(np.linalg.inv)[0], None


def blockwise_inverse(fb: FourierBlocks) -> tuple[FourierBlocks, np.ndarray]:
    """The half spectrum of the t-inverse, and the singular values of the
    blocks that decided it exists: every block's smallest singular value
    must lie above the tensor's rank cutoff, or Singular names the first
    block where it does not."""
    _require_square(fb, "t_inverse")
    sigma, cutoff = _spectrum_cutoff(fb)
    x, k = _inverse_if_invertible(fb, sigma, cutoff)
    if x is None:
        sigma_min = float(sigma[k, -1])
        raise Singular(
            f"not invertible (smallest singular value {sigma_min:.3e})",
            block_index=k,
            sigma_min=sigma_min,
        )
    return FourierBlocks(x, fb.p), sigma


def t_inverse(a: Tensor3) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible,
    i.e. its smallest singular value above the tensor's rank cutoff."""
    return assemble_real(blockwise_inverse(to_fourier(a))[0])[0]


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


def _pinv_from_block_svds(a: Tensor3, u, sigma, vh) -> Tensor3:
    """The real tensor whose Fourier blocks are the pseudoinverses of a's,
    from the SVDs of a's half spectrum, taken at a's rank cutoff."""
    threshold = kernels.rank_cutoff(sigma, a.dims).at()
    x = kernels.pinv_from_svd(u, sigma, vh, threshold)
    return assemble_real(FourierBlocks(x, a.dims[2]))[0]


def t_pinv_blocks(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse via blockwise matrix pseudoinverses, from the
    thin SVDs of the half spectrum."""
    return _pinv_from_block_svds(a, *to_fourier(a).map(kernels.svd_reduced))


def t_pinv_svd(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse through the t-SVD a = u * s * v^T: the
    tensor v * pinv(s) * u^T, formed blockwise from the full SVDs of the
    half spectrum that :func:`~tprod.factorizations.t_svd` takes."""
    u, sigma, v = to_fourier(a).map(kernels.svd_stack)
    return _pinv_from_block_svds(a, u, sigma, np.conj(v.swapaxes(-1, -2)))


def t_pinv(a: Tensor3, route: str = "blocks") -> Tensor3:
    """Moore-Penrose inverse by ``route`` "blocks" (:func:`t_pinv_blocks`)
    or "svd" (:func:`t_pinv_svd`), which agree up to rounding."""
    if route == "blocks":
        return t_pinv_blocks(a)
    if route == "svd":
        return t_pinv_svd(a)
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


def _drazin_blocks(a: Tensor3, name: str) -> tuple:
    """The Fourier blocks of the square-sliced ``a``, their singular values
    and the tensor's rank cutoff; ``name`` is the op that a non-square
    ``a`` is refused for.

    Drazin index 0 is decided from these once for the whole tensor, by
    the test :func:`blockwise_inverse` decides Singular by
    (:meth:`~kernels.RankCutoff.invertible`): when every block passes,
    every index is 0, and :func:`t_drazin` and :func:`t_group` return the
    inverse of :func:`_inverse_if_invertible`.  Any other tensor takes
    :func:`kernels.drazin_indices` at that cutoff.
    """
    _require_square(a, name)
    fb = to_fourier(a)
    return (fb, *_spectrum_cutoff(fb))


def t_index(a: Tensor3) -> int:
    """Drazin index of a tensor: largest matrix index over Fourier blocks,
    decided by the same routine as :func:`t_drazin`; 0 exactly when
    :func:`t_inverse` does not raise Singular."""
    fb, sigma, cutoff = _drazin_blocks(a, "t_index")
    if cutoff.invertible(sigma).all():
        return 0
    (index,) = fb.map(
        lambda blocks, s: kernels.drazin_indices(blocks, cutoff, s)[0], sigma)
    return int(index.max())


@dataclass
class DrazinResult:
    ad: Tensor3
    index: int
    report: ResidualReport


def t_drazin(a: Tensor3) -> DrazinResult:
    """Drazin inverse; always exists as a real tensor.

    The tensor index is the largest matrix index over the Fourier blocks
    (conjugate partners share theirs).  An invertible tensor (index 0) is
    inverted by the block map of :func:`t_inverse`, so its Drazin inverse
    is the t-inverse bit for bit by construction; any other tensor takes
    :func:`kernels.drazin_stack` on the half spectrum.
    """
    fb, sigma, cutoff = _drazin_blocks(a, "t_drazin")
    x, _ = _inverse_if_invertible(fb, sigma, cutoff)
    index = 0
    if x is None:
        x, indices = fb.map(
            lambda blocks, s: kernels.drazin_stack(blocks, cutoff, s), sigma)
        index = int(indices.max())
    ad = assemble_real(FourierBlocks(x, fb.p))[0]
    report = drazin_report(a, ad, index)
    return DrazinResult(ad, index, report)


@verifying
def drazin_report(a: Tensor3, ad: Tensor3, index: int) -> ResidualReport:
    """Residuals of the three Drazin identities at the given index.  At
    index 0, A^0 = I and the power identity is A*A^D = I."""
    report = ResidualReport("drazin").start()
    t_gi = gi_tolerance(a)
    fa, fd = to_fourier(a), to_fourier(ad)
    ak = fa.power(index)
    a_ad = fa @ fd
    lhs = a_ad if index == 0 else ak @ fa @ fd
    report.add_identity("power_identity", lhs, ak, t_gi)
    da = fd @ fa
    report.add_identity("outer_identity", da @ fd, fd, t_gi)
    report.add_identity("commutation", a_ad, da, t_gi)
    return report.stop()


def _index_and_square(blocks: np.ndarray, cutoff: kernels.RankCutoff,
                      sigma: np.ndarray) -> tuple:
    """The Drazin indices of a batch of blocks and their squares, the one
    power beyond the blocks that a group inverse of index 1 is formed
    from.  A batch of index 0 forms no square and passes its blocks in
    its place, unread."""
    index, powers = kernels.drazin_indices(blocks, cutoff, sigma)
    return index, powers[2] if len(powers) > 2 else blocks


def t_group(a: Tensor3) -> Tensor3:
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block,
    both ranks taken at the tensor's rank cutoff: a Drazin index of at
    most 1.  It is then the Drazin inverse, built as :func:`t_drazin`
    builds it (on an invertible tensor, the t-inverse bit for bit by
    construction).  Existence is decided from the indices of every block
    before any block's inverse is formed, so a failure is
    GroupInverseNotExist naming the first block of larger index, even
    where the A_k^3 of another block would overflow.
    """
    fb, sigma, cutoff = _drazin_blocks(a, "t_group")
    x, _ = _inverse_if_invertible(fb, sigma, cutoff)
    if x is None:
        index, square = fb.map(
            lambda blocks, s: _index_and_square(blocks, cutoff, s), sigma)
        over = np.flatnonzero(index > 1)
        if over.size:
            k = int(over[0])
            exc = kernels.no_group_inverse(fb.block(k), cutoff)
            exc.block_index = k
            raise exc
        (x,) = fb.map(
            lambda blocks, i, sq: kernels.drazin_from_powers(
                blocks, cutoff, i, [None, blocks, sq]),
            index, square)
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


def unit_regular_witness(a: Tensor3) -> UnitRegularWitness:
    """Invertible von Neumann inverse w with a * w * a = a.

    With a = u * e * v the idempotent factorization, built from the block
    SVDs A_k = U_k diag(sigma) V_k^H, w = v^{-1} * u^{-1} has the closed
    form w_k = V_k diag(d) U_k^H: d = 1/sigma above the rank cutoff, 1 at
    or below it.  w is t-invertible by construction, which is what makes
    every element of the square t-product ring unit regular.
    """
    _require_square(a, "unit_regular_witness")
    u, sigma, v = to_fourier(a).map(kernels.svd_stack)
    cutoff = kernels.rank_cutoff(sigma, a.dims)
    u_rank, e, vh = kernels.rank_normal_factors(u, sigma, v, cutoff)
    w = kernels.pinv_from_svd(u, sigma, vh, cutoff.at(), below=1.0)
    u, e, v, w = (assemble_real(FourierBlocks(f, a.dims[2]))[0]
                  for f in (u_rank, e, vh, w))
    return UnitRegularWitness(w, u, e, v, witness_report(a, w))


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
