"""Fourier-domain engine: block transforms, the half-spectrum representation
of a real tensor, and the batch engine that runs matrix kernels on it.

Convention lock
---------------
The forward transform is the unnormalized sum

    A_i = sum_k xi^(i*k) * slice_k,   xi = exp(-2*pi*i/p)   (0-based i, k)

and the inverse carries the 1/p factor.  The normalized DFT matrix F_p
(with the 1/sqrt(p) factor) is used only for the block-diagonal similarity
of the circulant embedding:

    bcirc(t) = (F_p* kron I_m) diag(A_1..A_p) (F_p kron I_n).

For a real tensor the blocks are linked: A_1 is real, block p-k+2 is the
conjugate of block k (1-based), and for even p the middle block is real.
So a real tensor is determined by its non-redundant blocks 0..floor(p/2),
and :class:`FourierBlocks` stores exactly those: the partners are implied,
so conjugate pairing holds by construction rather than by checking that
independent computations came out compatible.

The transforms are numpy's FFTs along the slice axis.  ``np.fft.rfft``
computes exactly blocks 0..floor(p/2), with a real DC block and, for even
p, a real Nyquist block.  The real inverse is ``np.fft.irfft`` of the same
blocks.  irfft ignores the imaginary parts of the DC and Nyquist blocks,
so they are certified before it runs, never silently dropped, in one
place (``_certified_irfft``) under one rule (:func:`pair_tolerance`,
PairingViolation); every real inverse transform goes through it.

The residual reports verify in one of two domains, chosen by size in
:func:`operands` under :data:`core.DIRECT_PATH_LIMIT`, the rule by which
:func:`core.tprod` picks its path.  Above the limit (and four of them
at every size; see :mod:`tprod.report`) they verify on the half spectrum:
``@``, ``.T``, :meth:`FourierBlocks.power` and
:meth:`FourierBlocks.identity` are the t-product, transpose, power and
identity on blocks 0..floor(p/2), and :meth:`FourierBlocks.distance`
measures an identity as max|lhs - rhs| over the slices, with one certified
irfft of its residual blocks.  At desk scale a :class:`SliceStack` has the
same five operations on the slices, with no transform: ``@`` is the
block-circulant product of :func:`core.tprod`'s direct path.  In either
domain a residual beyond the float64 range is a MathError.
:func:`core.tprod`'s Fourier path is the half spectrum's ``@``, turned
back into slices by the same certified irfft.

Blockwise maps run on one engine, :meth:`FourierBlocks.map`.  It runs a
stacked kernel once on the real parts of the real-forced blocks and once
on the complex rest, names the Fourier block of a kernel failure, and
joins the results over blocks 0..floor(p/2).  Every op runs its kernels
on it, and no other code batches the real-forced blocks apart from the
complex ones.

The full p-block stack (:func:`mirror_blocks`, :func:`check_pairing`,
:func:`inverse_transform`) serves only the unpaired demonstrations and the
tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DIRECT_PATH_LIMIT,
    Tensor3,
    _circulant_product,
    _identity_slices,
    _require_square,
    _transpose_slices,
    not_conformable,
)
from .errors import BlockOpError, DimensionError, MathError, PairingViolation
from .kernels import _retired
from .report import ResidualReport


TRANSFORM_OVERFLOW = "the inverse transform overflowed the float64 range"
IDENTITY_OVERFLOW = "an identity residual overflowed the float64 range"


def pair_tolerance(max_abs: float) -> float:
    """Pairing defect allowance: 1e-10 * (1 + max|block entry|).  It is
    the one rule that certifies the imaginary parts irfft drops."""
    return 1e-10 * (1.0 + max_abs)


def real_tolerance(max_abs: float, p: int) -> float:
    """The allowance of a factorization report's ``realness`` row: the
    imaginary residue a p-term inverse transform may leave."""
    return 1e-9 * (1.0 + max_abs) * p


def real_forced_indices(p: int) -> tuple[int, ...]:
    """Self-paired indices whose blocks must be real: 0 and, p even, p/2."""
    return (0, p // 2) if p % 2 == 0 and p > 1 else (0,)


def real_forced_slice(p: int) -> slice:
    """:func:`real_forced_indices` as a slice, which indexes a view."""
    return slice(None, None, p // 2) if p % 2 == 0 else slice(1)


class _Operand:
    """What the two domains of the verification algebra share: the power
    by repeated products, from the identity of the operand's own type."""

    __slots__ = ()

    def power(self, k: int):
        """The k-th t-product power: repeated products, the identity at
        k = 0."""
        _require_square(self, "power")
        if k < 0:
            raise ValueError("power exponent must be nonnegative")
        result = type(self).identity(*self.dims[1:]) if k == 0 else self
        for _ in range(k - 1):
            result = result @ self
        return result


@dataclass(frozen=True, eq=False)
class FourierBlocks(_Operand):
    """The Fourier blocks 0..floor(p/2) of a real m x n x p tensor.

    ``blocks`` has shape (p // 2 + 1, m, n).  Block p - k is the conjugate
    of block k and is not stored, so pairing holds by construction; the
    realness of the DC and Nyquist blocks is certified when they are
    transformed back (:func:`assemble_real`, :meth:`distance`).
    :meth:`from_full` and :meth:`full` convert from and to the full
    p-block stack.
    """

    blocks: np.ndarray
    p: int

    def __post_init__(self):
        arr = np.asarray(self.blocks)
        if self.p < 1 or arr.ndim != 3 or len(arr) != self.p // 2 + 1:
            raise ValueError(
                f"blocks must have shape ({self.p // 2 + 1}, m, n) for "
                f"p = {self.p}, got {arr.shape}"
            )
        # freeze a view: the caller's array, which ascontiguousarray may
        # return as it is, stays writable
        arr = np.ascontiguousarray(arr, dtype=np.complex128).view()
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierBlocks):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.blocks, other.blocks)

    __hash__ = None

    @classmethod
    def _wrap(cls, blocks: np.ndarray, p: int) -> "FourierBlocks":
        """Wrap a complex (p // 2 + 1, m, n) stack that nothing else writes
        to, without checking or copying it."""
        blocks.setflags(write=False)
        fb = cls.__new__(cls)
        # past the frozen __setattr__
        fb.__dict__.update(blocks=blocks, p=p)
        return fb

    @classmethod
    @functools.lru_cache(maxsize=16)
    def identity(cls, n: int, p: int) -> "FourierBlocks":
        """The half spectrum of the n x n x p identity tensor: I_n in
        every block, a read-only view of one n x n array.  The reports
        compare against it several times per op, so the 16 most recently
        used (n, p) are kept, not built again."""
        eye = np.eye(n, dtype=np.complex128)
        return cls._wrap(np.broadcast_to(eye, (p // 2 + 1, n, n)), p)

    @classmethod
    def from_full(cls, blocks) -> "FourierBlocks":
        """The half of a full (p, m, n) block stack whose blocks pass
        :func:`check_pairing`; raises PairingViolation otherwise."""
        blocks = np.asarray(blocks)
        _require_paired(check_pairing(blocks))
        return cls(blocks[:len(blocks) // 2 + 1], len(blocks))

    def full(self) -> np.ndarray:
        """The full (p, m, n) block stack, partners as exact conjugates."""
        return mirror_blocks(self.blocks, self.p)

    @property
    def dims(self) -> tuple[int, int, int]:
        _, m, n = self.blocks.shape
        return m, n, self.p

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.blocks).max())

    def block(self, k: int) -> np.ndarray:
        """Block k, real on the real-forced indices (whose imaginary part
        is transform rounding), complex elsewhere."""
        block = self.blocks[k]
        return block.real if k in real_forced_indices(self.p) else block

    # The verification algebra above DIRECT_PATH_LIMIT (SliceStack's at or
    # below it; see operands): the reports write each identity with these
    # on the half spectra of their operands and measure it by distance,
    # which refuses an overflow anywhere in its making as MathError.  Its
    # products keep numpy's overflow warning, which a report switches off
    # while it runs (``with ResidualReport(...)``).

    def __matmul__(self, other: "FourierBlocks") -> "FourierBlocks":
        """The half spectrum of the t-product self * other: one stacked
        block product.  Dims that do not conform are refused as
        :func:`core.tprod` refuses them."""
        if self.blocks.shape[2] != other.blocks.shape[1] or self.p != other.p:
            raise not_conformable(self.dims, other.dims)
        return FourierBlocks._wrap(self.blocks @ other.blocks, self.p)

    @property
    def T(self) -> "FourierBlocks":
        """The half spectrum of the tensor transpose: the conjugate
        transpose of every block."""
        return FourierBlocks._wrap(self.blocks.conj().transpose(0, 2, 1),
                                   self.p)

    def distance(self, other: "FourierBlocks") -> float:
        """max|entry| of the real tensor self - other over its slices: one
        certified irfft of the difference blocks.

        Unequal dims are a DimensionError, as in Tensor3 subtraction.  The
        imaginary parts irfft drops are certified as :func:`assemble_real`
        certifies them.  A non-finite residual, from a block product or a
        transform beyond the float64 range, is a MathError, and so is a
        non-finite residue of those dropped parts, which leaves the slices
        finite.
        """
        if self.p != other.p or self.blocks.shape != other.blocks.shape:
            raise DimensionError(f"dims {self.dims} != {other.dims}")
        slices, residue = _certified_irfft(self.blocks - other.blocks, self.p)
        residual = float(np.abs(slices).max())
        if not (math.isfinite(residual) and math.isfinite(residue)):
            raise MathError(IDENTITY_OVERFLOW)
        return residual

    def map(self, fn: Callable, *args) -> tuple:
        """``fn(stack, *arg_stacks)`` over blocks 0..floor(p/2), one call
        per batch: the real parts of the real-forced blocks, then the
        complex blocks 1..ceil(p/2)-1 (absent for p <= 2).

        Each of ``args`` is an array over blocks 0..floor(p/2), split like
        the blocks (real parts on the real-forced batch).  Each result
        family comes back joined over blocks 0..floor(p/2), as a tuple even
        when ``fn`` returns one array.  If a batch fails, every block is
        re-run alone in index order, so that the first failing Fourier
        block is named whatever the batching.  Only the failures kernels
        raise are named: a :class:`MathError` comes out with
        ``block_index`` set to it, and a ValueError (a non-finite block
        refused, or np.linalg.LinAlgError from an unguarded ``inv``) as a
        BlockOpError.  Any other exception, a programming error in a
        kernel or in ``fn``, propagates as itself.
        """
        batches = [(real_forced_slice(self.p), True)]
        if self.p > 2:
            batches.append((slice(1, (self.p + 1) // 2), False))

        def call(indices, real):
            stacks = (np.asarray(x)[indices] for x in (self.blocks, *args))
            out = fn(*(s.real if real else s for s in stacks))
            return out if isinstance(out, tuple) else (out,)

        outs = []
        for indices, real in batches:
            try:
                outs.append(call(indices, real))
            except (MathError, ValueError):  # LinAlgError is a ValueError
                self._raise_at_first_block(call)
                raise
        joined = []
        for family in zip(*outs):
            shape = (self.p // 2 + 1,) + family[0].shape[1:]
            joined.append(np.empty(shape, dtype=np.result_type(*family)))
            for (indices, _), part in zip(batches, family):
                joined[-1][indices] = part
        return tuple(joined)

    def _raise_at_first_block(self, call: Callable) -> None:
        for k in range(self.p // 2 + 1):
            try:
                call([k], k in real_forced_indices(self.p))
            except MathError as exc:
                if exc.block_index is None:
                    exc.block_index = k
                raise
            except ValueError as exc:
                raise BlockOpError(f"block operation failed: {exc}", k) from exc


class SliceStack(_Operand):
    """The (p, m, n) slice stack of a real m x n x p tensor as an operand
    of the verification algebra: :class:`FourierBlocks`' ``@``, ``.T``,
    ``power``, ``identity`` and ``distance``, on the slices with no
    transform.  The reports verify on it at desk scale (:func:`operands`).
    """

    __slots__ = ("slices",)

    def __init__(self, slices: np.ndarray):
        self.slices = slices

    @classmethod
    def identity(cls, n: int, p: int) -> "SliceStack":
        """The n x n x p identity tensor, on slices built once per (n, p)
        and kept for the 16 most recently used."""
        return cls(_identity_slices(n, p))

    @property
    def dims(self) -> tuple[int, int, int]:
        p, m, n = self.slices.shape
        return m, n, p

    def __matmul__(self, other: "SliceStack") -> "SliceStack":
        """The t-product self * other, by :func:`core.tprod`'s direct
        block-circulant product.  Dims that do not conform are refused as
        :func:`core.tprod` refuses them."""
        (p, _, n), (q, k, _) = self.slices.shape, other.slices.shape
        if n != k or p != q:
            raise not_conformable(self.dims, other.dims)
        return SliceStack(_circulant_product(self.slices, other.slices))

    @property
    def T(self) -> "SliceStack":
        """The tensor transpose, as :func:`core.transpose` forms it."""
        return SliceStack(_transpose_slices(self.slices))

    def distance(self, other: "SliceStack") -> float:
        """max|entry| of self - other.  Unequal dims are a DimensionError,
        and a non-finite residual, from a product beyond the float64
        range, is a MathError, as :meth:`FourierBlocks.distance` has
        them."""
        if self.slices.shape != other.slices.shape:
            raise DimensionError(f"dims {self.dims} != {other.dims}")
        residual = float(np.abs(self.slices - other.slices).max())
        if not math.isfinite(residual):
            raise MathError(IDENTITY_OVERFLOW)
        return residual


def operands(*tensors: Tensor3) -> tuple:
    """The operands a report verifies ``tensors`` on: their slice stacks
    (:class:`SliceStack`) when p * max(m, n) of every one is within
    :data:`core.DIRECT_PATH_LIMIT`, where the direct product is the
    cheaper one, and their half spectra (:func:`to_fourier`) above it."""
    size = max(p * max(m, n) for m, n, p in (t.dims for t in tensors))
    if size <= DIRECT_PATH_LIMIT:
        return tuple(SliceStack(t.array) for t in tensors)
    return tuple(to_fourier(t) for t in tensors)


def mirror_blocks(evaluated, p: int) -> np.ndarray:
    """Assemble a full (p, m, n) block stack from the non-redundant half.

    ``evaluated`` is a list of the blocks k = 0..floor(p/2) or the same
    blocks stacked as one (floor(p/2)+1, m, n) array.  Partners are filled
    with exact conjugates, so the pairing relations hold bit-exactly.
    Real-forced entries may be real arrays; they are stored with zero
    imaginary part.
    """
    h = p // 2 + 1
    if len(evaluated) != h:
        raise ValueError(
            f"expected {h} evaluated blocks for p={p}, got {len(evaluated)}"
        )
    m, n = np.shape(evaluated[0])
    out = np.empty((p, m, n), dtype=np.complex128)
    out[:h] = evaluated
    # block k in h..p-1 is the conjugate of block p-k, taken from 1..p-h
    out[h:] = np.conj(out[1:p - h + 1][::-1])
    return out


@np.errstate(over="ignore", invalid="ignore")
def to_fourier(t: Tensor3) -> FourierBlocks:
    """Forward block transform of a real tensor: ``np.fft.rfft`` along the
    slice axis, blocks 0..floor(p/2) with exactly real DC and Nyquist
    blocks.  An overflow is kept, unwarned, for the kernels to refuse."""
    return FourierBlocks._wrap(np.fft.rfft(t.array, axis=0), t.dims[2])


def inverse_transform(blocks) -> np.ndarray:
    """Raw inverse transform of a full (p, m, n) block stack: the complex
    slice stack, with no pairing assumed."""
    return np.fft.ifft(blocks, axis=0)


def _certified_irfft(half: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """irfft of blocks 0..floor(p/2), after certifying what it drops.

    irfft ignores the imaginary parts of the DC and, for even p, Nyquist
    blocks.  Products and transforms of real tensors leave them exactly
    zero.  Any other finite value is held to the pairing rule: no
    imaginary entry of those blocks above :func:`pair_tolerance` at the
    largest block entry, or PairingViolation with its report.  Returns the
    C-ordered (p, m, n) slice stack and the residue the dropped parts
    would add to a slice entry (their sum over the blocks divided by p).
    A non-finite residue (an overflowed block product leaves NaN there) is
    not certified, nor is any residue against a non-finite allowance (a
    block entry that is NaN or inf): the slices are then non-finite too,
    and the callers refuse them, as they do the slices of a transform that
    overflowed.
    """
    edge = half.imag[real_forced_slice(p)]
    max_imag = float(np.abs(edge).sum(axis=0).max()) / p if edge.any() else 0.0
    if max_imag and math.isfinite(max_imag):
        tol = pair_tolerance(float(np.abs(half).max()))
        if math.isfinite(tol):
            _require_paired(_pairing_report(half, p, tol))
    return np.ascontiguousarray(np.fft.irfft(half, n=p, axis=0)), max_imag


@np.errstate(over="ignore", invalid="ignore")
def assemble_real(fb: FourierBlocks) -> tuple[Tensor3, float]:
    """Certified real inverse transform.

    The stored half is paired by construction, so only what irfft would
    drop is checked, by :func:`_certified_irfft`: the imaginary parts of
    the DC and Nyquist blocks, never silently truncated.  Returns the
    tensor together with the residue they leave in the slices (useful for
    residual reports).  Non-finite block entries are a BlockOpError naming
    their first block, and slices beyond the float64 range are a MathError.
    A non-finite block always leaves non-finite slices or a non-finite
    residue, so the blocks are searched only then, and the one finiteness
    pass of finite blocks is Tensor3's, over the slices.
    """
    try:
        slices, residue = _certified_irfft(fb.blocks, fb.p)
        if not math.isfinite(residue):
            _require_finite_blocks(fb)
        return Tensor3._wrap(slices), residue
    except ValueError as exc:  # Tensor3 refuses non-finite slices
        _require_finite_blocks(fb)
        raise MathError(TRANSFORM_OVERFLOW) from exc


def _require_finite_blocks(fb: FourierBlocks) -> None:
    """BlockOpError naming the first block with a non-finite entry."""
    finite = np.isfinite(fb.blocks).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise BlockOpError("block entries are non-finite (overflow)", k)


def check_pairing(blocks) -> ResidualReport:
    """Residuals of the conjugate-pairing relations of a full (p, m, n)
    block stack.

    Checks: realness of block 1, the conjugate relation over all blocks
    k >= 2 (under which a self-paired middle block contributes twice its
    imaginary part), and for even p the realness of the middle block.
    The conjugate relation is evaluated once per pair k = 1..floor(p/2):
    |A_(p-k) - conj(A_k)| = |A_k - conj(A_(p-k))| exactly, so the residual
    equals the maximum over all k.
    """
    blocks = np.asarray(blocks)
    p, h = len(blocks), len(blocks) // 2
    pair_dev = (np.abs(blocks[p - h:][::-1] - np.conj(blocks[1:h + 1])).max()
                if p > 1 else None)
    return _pairing_report(
        blocks, p, pair_tolerance(float(np.abs(blocks).max())), pair_dev
    )


def _pairing_report(blocks, p: int, tol: float, pair_dev=None) -> ResidualReport:
    """Realness of blocks 0 and, p even, p/2 (present in a full stack and
    in its half alike), with the conjugate-pairing residual if given."""
    with ResidualReport("check_pairing") as report:
        report.add("block1_realness", np.abs(blocks[0].imag).max(), tol)
        if pair_dev is not None:
            report.add("conjugate_pairing", pair_dev, tol)
        if p % 2 == 0 and p > 1:
            report.add("mid_block_realness", np.abs(blocks[p // 2].imag).max(),
                       tol)
    return report


def _require_paired(report: ResidualReport) -> None:
    if not report.passed:
        raise PairingViolation(
            "Fourier blocks violate conjugate pairing; inverse transform "
            "would not be real",
            report=report,
        )


lift_multi = _retired("lift_multi", "FourierBlocks.map", "fourier")
