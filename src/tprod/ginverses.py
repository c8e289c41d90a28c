"""Generalized inverses of real tensors under the t-product.

All constructions run blockwise on the half spectrum in the Fourier
domain, which implies the conjugate partners, so every output is a real
tensor.  The Moore-Penrose inverse has two routes, blockwise matrix
pseudoinverses from thin SVDs and the t-SVD route from full ones; their
agreement is a built-in cross-check, and :func:`penrose_report`
certifies either.  Every op takes its rank decisions, at the tensor's
scale S = max_k sigma_1(A_k), from one :class:`_Spectrum` built once.
:func:`t_index`, :func:`t_drazin` and :func:`t_group` decide Drazin index
0 once per tensor, by the test :func:`t_inverse` decides invertibility
by, so on an invertible tensor they run its block map and nothing else.
Above desk scale that test first tries the block map itself, a certified
LU inverse (:func:`kernels.certified_inverse`): on a tensor it certifies,
these four ops and square :func:`t_pinv_blocks` take no SVD, and the
pseudoinverse is the t-inverse bit for bit.  :func:`witness_report`
inverts w by the same test.
Residual allowances scale quadratically with the data magnitude because
the defining identities are triple products.  The pseudoinverse and
inverse reports check those identities on the slices of their operands at
desk scale and on their half spectra above it; the Drazin, group and
witness reports check them on the half spectra at every size (see
:mod:`tprod.report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import DIRECT_PATH_LIMIT, Tensor3, _require_square
from .errors import MathError, Singular
from .fourier import FourierBlocks, assemble_real, operands, to_fourier
from .report import ResidualReport


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


class _Spectrum:
    """One op's half spectrum ``fb``, the result families of the SVD
    ``kernel`` it runs on it, their singular values ``sigma`` (the
    kernel's only or second result) and the tensor's rank cutoff
    (:func:`kernels.rank_cutoff`): the one source of the op's decisions.

    With ``certify``, a square spectrum above desk scale (p * n above
    DIRECT_PATH_LIMIT, the rule of :func:`~tprod.fourier.operands`) first
    takes the stacked LU inverse of every block, the real-forced batch
    first, and keeps it as ``certified`` only if
    :func:`kernels.certified_inverse` proves every block's smallest
    singular value above the cutoff.  The tensor is then invertible, and
    the kernel does not run: ``families``, ``sigma`` and ``cutoff`` are
    never set.  Otherwise ``certified`` is None and the kernel runs as
    without ``certify``, so every decision, output and error on a tensor
    that is not certified is the kernel's.  At desk scale the
    singular-value pass costs less than the certificate, so it runs
    there unconditionally."""

    def __init__(self, fb: FourierBlocks, kernel: Callable,
                 certify: bool = False):
        self.fb = fb
        self.certified = self._certified_inverse() if certify else None
        if self.certified is None:
            self.families = fb.map(kernel)
            self.sigma = self.families[0 if len(self.families) == 1 else 1]
            self.cutoff = kernels.rank_cutoff(self.sigma, fb.dims)

    def _certified_inverse(self) -> np.ndarray | None:
        m, n, p = self.fb.dims
        if m != n or p * n <= DIRECT_PATH_LIMIT:
            return None
        norms, floor = kernels.inverse_certificate_scale(self.fb.blocks,
                                                         self.fb.dims)
        try:
            return self.fb.map(
                lambda blocks, block_norms: kernels.certified_inverse(
                    blocks, block_norms, floor),
                norms)[0]
        except kernels._Uncertified:
            return None

    def singular_block(self) -> int | None:
        """The first block whose smallest singular value lies at or below
        the cutoff (:meth:`~kernels.RankCutoff.invertible`); None when
        there is none, so the tensor is invertible and of Drazin index 0,
        as it is when ``certified``."""
        if self.certified is not None:
            return None
        singular = np.flatnonzero(~self.cutoff.invertible(self.sigma))
        return int(singular[0]) if singular.size else None

    def inverse(self) -> np.ndarray:
        """The inverse of every block, by one stacked LU ``inv`` per batch:
        the ``certified`` one, which is the same call on the same
        batches."""
        if self.certified is not None:
            return self.certified
        return self.fb.map(np.linalg.inv)[0]

    def map(self, kernel: Callable, *args) -> tuple:
        """:meth:`FourierBlocks.map` of ``kernel(blocks, cutoff, sigma,
        *args)``, with sigma and ``args`` split like the blocks."""
        return self.fb.map(
            lambda blocks, sigma, *rest: kernel(blocks, self.cutoff, sigma,
                                                *rest),
            self.sigma, *args)

    def pinv(self, vh: np.ndarray, below: float = 0.0) -> np.ndarray:
        """:func:`kernels.pinv_from_svd` at the cutoff, of the blocks' SVDs
        with right factors ``vh``."""
        u, sigma = self.families[:2]
        return kernels.pinv_from_svd(u, sigma, vh, self.cutoff.at(), below)

    def real(self, *families: np.ndarray) -> list[Tensor3]:
        """The real tensors whose half spectra are ``families``."""
        return [assemble_real(FourierBlocks(f, self.fb.p))[0]
                for f in families]


def _invertible(fb: FourierBlocks, certify: bool = False) -> _Spectrum:
    """The spectrum of a tensor every block of which has its smallest
    singular value above the tensor's rank cutoff; Singular names the
    first block where it does not."""
    _require_square(fb, "t_inverse")
    spec = _Spectrum(fb, kernels.singular_values, certify)
    k = spec.singular_block()
    if k is not None:
        sigma_min = float(spec.sigma[k, -1])
        raise Singular(
            f"not invertible (smallest singular value {sigma_min:.3e})",
            block_index=k,
            sigma_min=sigma_min,
        )
    return spec


def blockwise_inverse(fb: FourierBlocks) -> tuple[FourierBlocks, np.ndarray]:
    """The half spectrum of the t-inverse, and the singular values of the
    blocks that decided it exists (:meth:`_Spectrum.singular_block`).  It
    always takes the singular-value pass, whose values
    ``tjordan_report`` reads."""
    spec = _invertible(fb)
    return FourierBlocks(spec.inverse(), fb.p), spec.sigma


def t_inverse(a: Tensor3) -> Tensor3:
    """Two-sided t-inverse; requires every Fourier block invertible,
    i.e. its smallest singular value above the tensor's rank cutoff.
    Above desk scale a certified LU inverse decides that without the
    singular-value pass (:class:`_Spectrum`)."""
    spec = _invertible(to_fourier(a), certify=True)
    return spec.real(spec.inverse())[0]


def inverse_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of a*x = x*a = identity."""
    m, n, p = a.dims
    with ResidualReport("tinv") as report:
        t_gi = gi_tolerance(a)
        fa, fx = operands(a, x)
        eye = type(fa).identity(n, p)
        report.add_identity("left_inverse", fx @ fa, eye, t_gi)
        report.add_identity("right_inverse", fa @ fx, eye, t_gi)
    return report


def t_pinv_blocks(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse via blockwise matrix pseudoinverses, from the
    thin SVDs of the half spectrum.  A square tensor that :class:`_Spectrum`
    certifies invertible, above desk scale, is its t-inverse, and gets
    :func:`t_inverse`'s bits without an SVD."""
    spec = _Spectrum(to_fourier(a), kernels.svd_reduced, certify=True)
    if spec.certified is not None:
        return spec.real(spec.certified)[0]
    return spec.real(spec.pinv(spec.families[2]))[0]


def t_pinv_svd(a: Tensor3) -> Tensor3:
    """Moore-Penrose inverse through the t-SVD a = u * s * v^T: the
    tensor v * pinv(s) * u^T, formed blockwise from the full SVDs of the
    half spectrum that :func:`~tprod.factorizations.t_svd` takes."""
    spec = _Spectrum(to_fourier(a), kernels.svd_stack)
    return spec.real(spec.pinv(np.conj(spec.families[2].swapaxes(-1, -2))))[0]


def t_pinv(a: Tensor3, route: str = "blocks") -> Tensor3:
    """Moore-Penrose inverse by ``route`` "blocks" (:func:`t_pinv_blocks`)
    or "svd" (:func:`t_pinv_svd`), which agree up to rounding."""
    if route == "blocks":
        return t_pinv_blocks(a)
    if route == "svd":
        return t_pinv_svd(a)
    raise ValueError(f"unknown pinv route {route!r}")


def penrose_report(a: Tensor3, x: Tensor3) -> ResidualReport:
    """Residuals of the four Penrose equations under the t-product."""
    with ResidualReport("pinv") as report:
        t_gi = gi_tolerance(a)
        fa, fx = operands(a, x)
        ax = fa @ fx
        xa = fx @ fa
        report.add_identity("axa_equals_a", ax @ fa, fa, t_gi)
        report.add_identity("xax_equals_x", xa @ fx, fx, t_gi)
        report.add_identity("ax_t_symmetric", ax, ax.T, t_gi)
        report.add_identity("xa_t_symmetric", xa, xa.T, t_gi)
    return report


def t_index(a: Tensor3) -> int:
    """Drazin index of a tensor: largest matrix index over Fourier blocks,
    decided at the cutoff :func:`t_drazin` takes; 0 exactly when
    :func:`t_inverse` does not raise Singular, by the same test."""
    _require_square(a, "t_index")
    spec = _Spectrum(to_fourier(a), kernels.singular_values, certify=True)
    if spec.singular_block() is None:
        return 0
    index, _ = spec.map(_index_and_square)
    return int(index.max())


@dataclass
class DrazinResult:
    ad: Tensor3
    index: int
    report: ResidualReport


def t_drazin(a: Tensor3) -> DrazinResult:
    """Drazin inverse; always exists as a real tensor.

    The tensor index is the largest matrix index over the Fourier blocks
    (conjugate partners share theirs).  An invertible tensor (index 0),
    by the test of :func:`t_inverse`, is inverted by its block map, so its
    Drazin inverse is the t-inverse bit for bit by construction; any other
    tensor takes :func:`kernels.drazin_stack` at the same cutoff.
    """
    _require_square(a, "t_drazin")
    spec = _Spectrum(to_fourier(a), kernels.singular_values, certify=True)
    if spec.singular_block() is None:
        x, index = spec.inverse(), 0
    else:
        x, indices = spec.map(kernels.drazin_stack)
        index = int(indices.max())
    ad = spec.real(x)[0]
    return DrazinResult(ad, index, drazin_report(a, ad, index))


def drazin_report(a: Tensor3, ad: Tensor3, index: int) -> ResidualReport:
    """Residuals of the three Drazin identities at the given index.  At
    index 0, A^0 = I and the power identity is A*A^D = I.

    They are verified on the half spectrum at every size, never on the
    slices (:func:`~tprod.fourier.operands`).  For a large A^D the residual
    of A^D*A*A^D = A^D is rounding the size of :func:`gi_tolerance`, which
    does not grow with A^D, so its verdict would follow the domain's
    rounding rather than the answer."""
    with ResidualReport("drazin") as report:
        t_gi = gi_tolerance(a)
        fa, fd = to_fourier(a), to_fourier(ad)
        ak = fa.power(index)
        a_ad = fa @ fd
        lhs = a_ad if index == 0 else ak @ fa @ fd
        report.add_identity("power_identity", lhs, ak, t_gi)
        da = fd @ fa
        report.add_identity("outer_identity", da @ fd, fd, t_gi)
        report.add_identity("commutation", a_ad, da, t_gi)
    return report


def _index_and_square(blocks: np.ndarray, cutoff: kernels.RankCutoff,
                      sigma: np.ndarray) -> tuple:
    """The Drazin indices of a batch of blocks and their squares, the one
    power beyond the blocks that a group inverse of index 1 is formed
    from (:func:`t_index` reads only the indices).  A batch of index 0
    forms no square and passes its blocks in its place, unread."""
    index, powers = kernels.drazin_indices(blocks, cutoff, sigma)
    return index, powers[2] if len(powers) > 2 else blocks


def t_group(a: Tensor3) -> Tensor3:
    """Group inverse; exists iff rank(A_k^2) = rank(A_k) for every block,
    both ranks taken at the one cutoff of its spectrum: a Drazin index of
    at most 1.  It is then the Drazin inverse, built as :func:`t_drazin`
    builds it (on an invertible tensor, the t-inverse bit for bit by
    construction).  Existence is decided from the indices of every block
    before any block's inverse is formed, so a failure is
    GroupInverseNotExist naming the first block of larger index, even
    where the A_k^3 of another block would overflow.
    """
    _require_square(a, "t_group")
    spec = _Spectrum(to_fourier(a), kernels.singular_values, certify=True)
    if spec.singular_block() is None:
        return spec.real(spec.inverse())[0]
    index, square = spec.map(_index_and_square)
    over = np.flatnonzero(index > 1)
    if over.size:
        k = int(over[0])
        exc = kernels.no_group_inverse(spec.fb.block(k), spec.cutoff)
        exc.block_index = k
        raise exc
    (x,) = spec.fb.map(
        lambda blocks, i, sq: kernels.drazin_from_powers(
            blocks, spec.cutoff, i, [None, blocks, sq]),
        index, square)
    return spec.real(x)[0]


def group_report(a: Tensor3, g: Tensor3) -> ResidualReport:
    """Residuals of the three group-inverse identities, verified on the
    half spectrum at every size, as :func:`drazin_report` verifies its
    own."""
    with ResidualReport("group") as report:
        t_gi = gi_tolerance(a)
        fa, fg = to_fourier(a), to_fourier(g)
        ag, ga = fa @ fg, fg @ fa
        report.add_identity("inner_identity", ag @ fa, fa, t_gi)
        report.add_identity("outer_identity", ga @ fg, fg, t_gi)
        report.add_identity("commutation", ag, ga, t_gi)
    return report


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
    spec = _Spectrum(to_fourier(a), kernels.svd_stack)
    u_rank, e, vh = kernels.rank_normal_factors(*spec.families, spec.cutoff)
    u, e, v, w = spec.real(u_rank, e, vh, spec.pinv(vh, below=1.0))
    return UnitRegularWitness(w, u, e, v, witness_report(a, w))


def witness_report(a: Tensor3, w: Tensor3) -> ResidualReport:
    """Residuals of the unit-regular witness identities.  They are
    verified on the half spectrum at every size, never on the slices
    (:func:`~tprod.fourier.operands`), because w's inverse is taken on
    its blocks, by the test :func:`t_inverse` makes."""
    m, n, p = a.dims
    with ResidualReport("witness") as report:
        t_gi = gi_tolerance(a)
        fa, fw = to_fourier(a), to_fourier(w)
        report.add_identity("von_neumann", fa @ fw @ fa, fa, t_gi)
        w_inv = FourierBlocks(_invertible(fw, certify=True).inverse(), p)
        report.add_identity("witness_invertibility", fw @ w_inv,
                            FourierBlocks.identity(n, p), t_gi)
    return report
