"""Fourier-domain engine: block transforms, conjugate pairing, and the
mirrored maps that turn blockwise matrix maps into real tensor maps.

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
Every real construction in this library *enforces* that structure by
evaluating only the non-redundant indices 0..floor(p/2) and filling the
partners with exact conjugates, rather than hoping independent
computations come out compatible.

The transforms are numpy's FFTs along the slice axis.  ``np.fft.rfft``
computes exactly blocks 0..floor(p/2), with a real DC block and, for even
p, a real Nyquist block, so pairing holds by construction.  The real
inverse is ``np.fft.irfft`` of the same blocks.  irfft ignores the
imaginary parts of the DC and Nyquist blocks, so they are certified and
reported before it runs, never silently dropped.

Blockwise maps run in one of two ways.  :func:`lift_multi` calls a
per-block op on each block 0..floor(p/2).  :func:`half_batches`,
:func:`map_batches` and :func:`join_batches` run a batched kernel twice:
once on the real parts of the real-forced blocks and once on the complex
rest.  Either way a failure names its Fourier block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .core import Tensor3
from .errors import BlockOpError, MathError, PairingViolation, RealnessViolation
from .report import ResidualReport


def pair_tolerance(max_abs: float) -> float:
    """Pairing defect allowance: 1e-10 * (1 + max|block entry|)."""
    return 1e-10 * (1.0 + max_abs)


def real_tolerance(max_abs: float, p: int) -> float:
    """Imaginary-residue allowance after the p-term inverse transform."""
    return 1e-9 * (1.0 + max_abs) * p


class FourierContext:
    """Transform constants for a fixed slice count p.

    Attributes
    ----------
    p : slice count
    xi : primitive root exp(-2*pi*i/p)
    dft_matrix : the normalized p x p Fourier matrix (unitary)
    """

    __slots__ = ("p", "xi", "dft_matrix")

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("slice count must be positive")
        self.p = p
        self.xi = np.exp(-2j * np.pi / p)
        powers = np.exp(-2j * np.pi * np.arange(p) / p)
        idx = (np.arange(p)[:, None] * np.arange(p)[None, :]) % p
        self.dft_matrix = powers[idx] / np.sqrt(p)
        self.dft_matrix.setflags(write=False)


@lru_cache(maxsize=None)
def get_context(p: int) -> FourierContext:
    return FourierContext(p)


def partner(k: int, p: int) -> int:
    """Conjugate partner of block k (0-based): (p - k) mod p."""
    return (p - k) % p


def real_forced_indices(p: int) -> tuple[int, ...]:
    """Self-paired indices whose blocks must be real: 0 and, p even, p/2."""
    return (0, p // 2) if p % 2 == 0 and p > 1 else (0,)


def evaluated_indices(p: int) -> tuple[int, ...]:
    """Non-redundant indices 0..floor(p/2); the rest are mirrored."""
    return tuple(range(p // 2 + 1))


@dataclass(frozen=True)
class FourierBlocks:
    """The p complex Fourier blocks of a tensor plus pairing metadata.

    ``blocks`` has shape (p, m, n).  ``real_origin`` records that the
    blocks came from a real tensor (or from a mirrored lift) and therefore
    satisfy the conjugate-pairing relations; it gates :func:`lift_multi`
    and :func:`half_batches`.
    """

    blocks: np.ndarray
    real_origin: bool = False

    def __post_init__(self):
        arr = np.asarray(self.blocks)
        if arr.ndim != 3:
            raise ValueError("blocks must have shape (p, m, n)")
        # freeze a view: the caller's array, which ascontiguousarray may
        # return as it is, stays writable
        arr = np.ascontiguousarray(arr, dtype=np.complex128).view()
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        p, m, n = self.blocks.shape
        return m, n, p

    @property
    def p(self) -> int:
        return self.blocks.shape[0]

    @property
    def pairing(self) -> tuple[int, ...]:
        """partner index for each block; an involution on 0..p-1."""
        return tuple(partner(k, self.p) for k in range(self.p))

    @cached_property
    def real_forced(self) -> tuple[int, ...]:
        return real_forced_indices(self.p)

    @property
    def evaluated(self) -> tuple[int, ...]:
        return evaluated_indices(self.p)

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.blocks).max())

    def block(self, k: int) -> np.ndarray:
        """Block k, real on the real-forced indices (whose imaginary part
        is transform rounding), complex elsewhere."""
        return self.blocks[k].real if k in self.real_forced else self.blocks[k]


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


def to_fourier(t: Tensor3) -> FourierBlocks:
    """Forward block transform of a real tensor.

    ``np.fft.rfft`` along the slice axis gives blocks 0..floor(p/2), with
    exactly real DC and Nyquist blocks; their partners are filled with
    exact conjugates, so pairing holds by construction.
    """
    return mirrored(np.fft.rfft(t.array, axis=0), t.dims[2])


def inverse_transform(fb: FourierBlocks) -> np.ndarray:
    """Raw inverse transform: complex (p, m, n) slice stack."""
    return np.fft.ifft(fb.blocks, axis=0)


def _certified_irfft(half: np.ndarray, p: int, max_abs: float):
    """irfft of blocks 0..floor(p/2), after certifying what it drops.

    irfft ignores the imaginary parts of the DC and, for even p, Nyquist
    blocks.  Their sum divided by p bounds what they would add to any
    slice entry; that residue is checked against the realness tolerance
    and returned with the tensor.
    """
    max_imag = float(
        np.abs(half[list(real_forced_indices(p))].imag).sum(axis=0).max()
    ) / p
    tol = real_tolerance(max_abs, p)
    if max_imag > tol:
        raise RealnessViolation(
            f"reconstruction has imaginary residue {max_imag:.3e} beyond "
            f"{tol:.3e} in the DC or Nyquist block",
            max_imag=max_imag,
            tolerance=tol,
        )
    return Tensor3(np.fft.irfft(half, n=p, axis=0)), max_imag


def assemble_real(fb: FourierBlocks) -> tuple[Tensor3, float]:
    """Certified real inverse transform.

    Validates the pairing relations, certifies the imaginary residue of
    the DC and Nyquist blocks, and inverse-transforms blocks 0..floor(p/2)
    with irfft.  Returns the tensor together with the residue (useful for
    residual reports).  Large imaginary parts are an error, never silently
    truncated.
    """
    report = check_pairing(fb)
    if not report.passed:
        raise PairingViolation(
            "Fourier blocks violate conjugate pairing; inverse transform "
            "would not be real",
            report=report,
        )
    return _certified_irfft(fb.blocks[:fb.p // 2 + 1], fb.p, fb.max_abs)


def check_pairing(fb: FourierBlocks) -> ResidualReport:
    """Residuals of the conjugate-pairing relations.

    Checks: realness of block 1, the conjugate relation over all blocks
    k >= 2 (under which a self-paired middle block contributes twice its
    imaginary part), and for even p the realness of the middle block.
    The conjugate relation is evaluated once per pair k = 1..floor(p/2):
    |A_(p-k) - conj(A_k)| = |A_k - conj(A_(p-k))| exactly, so the residual
    equals the maximum over all k.  On :func:`to_fourier` output every
    residual is exactly zero: rfft returns real DC and Nyquist blocks and
    the partners are exact conjugates.
    """
    report = ResidualReport("check_pairing").start()
    tol = pair_tolerance(fb.max_abs)
    p, h = fb.p, fb.p // 2

    report.add("block1_realness", np.abs(fb.blocks[0].imag).max(), tol)

    if p > 1:
        pair_dev = np.abs(fb.blocks[p - h:][::-1] - np.conj(fb.blocks[1:h + 1]))
        report.add("conjugate_pairing", pair_dev.max(), tol)

    if p % 2 == 0 and p > 1:
        report.add("mid_block_realness", np.abs(fb.blocks[h].imag).max(), tol)
    return report.stop()


def mirrored(evaluated, p: int) -> FourierBlocks:
    """Mirror the non-redundant half and tag the result real-origin."""
    return FourierBlocks(mirror_blocks(evaluated, p), real_origin=True)


def lift_multi(
    fb: FourierBlocks, op: Callable[[np.ndarray, int], tuple]
) -> tuple[FourierBlocks, ...]:
    """Apply a blockwise map with conjugate mirroring.

    ``op(block, k)`` runs on blocks 0..floor(p/2) only, gets
    :meth:`FourierBlocks.block` (real on the real-forced indices) and
    returns a tuple of matrices.  Each factor family is mirrored onto the
    conjugate partners separately, so the per-block decompositions stay
    compatible across pairs.  A :class:`MathError` raised by ``op`` surfaces
    with ``block_index`` set; any other failure becomes a BlockOpError.
    """
    if not fb.real_origin:
        raise ValueError("lift requires blocks tagged real-origin")
    per_family: list[list[np.ndarray]] | None = None
    for k in fb.evaluated:
        try:
            outs = op(fb.block(k), k)
        except MathError as exc:
            if exc.block_index is None:
                exc.block_index = k
            raise
        except Exception as exc:
            raise BlockOpError(f"block operation failed: {exc}", k) from exc
        if not isinstance(outs, tuple):
            raise BlockOpError(
                "block operation must return a tuple of matrices, got "
                f"{type(outs).__name__}", k
            )
        outs = tuple(np.asarray(out) for out in outs)
        if k in fb.real_forced:
            for j, out in enumerate(outs):
                if np.iscomplexobj(out):
                    raise BlockOpError(
                        f"factor {j} is complex at a real-forced block", k
                    )
        if per_family is None:
            per_family = [[] for _ in outs]
        for family, out in zip(per_family, outs):
            family.append(out)
    assert per_family is not None
    return tuple(mirrored(family, fb.p) for family in per_family)


def half_batches(fb: FourierBlocks) -> tuple:
    """Blocks 0..floor(p/2) as the stacks that batched kernels run on.

    Returns ``(indices, stack)`` pairs: the real parts of the real-forced
    blocks, then the complex blocks 1..ceil(p/2)-1 (absent for p <= 2).
    """
    if not fb.real_origin:
        raise ValueError("batched maps require blocks tagged real-origin")
    rf = fb.real_forced
    batches = [(rf, fb.blocks[list(rf)].real)]
    if fb.p > 2:
        stop = (fb.p + 1) // 2
        batches.append((tuple(range(1, stop)), fb.blocks[1:stop]))
    return tuple(batches)


def map_batches(batches, fn: Callable, *args) -> list:
    """``fn(stack, *batch_args)`` on each batch of :func:`half_batches`.

    Each of ``args`` holds one entry per batch, stacked like the batch.  A
    failing batch is re-run block by block, so that a :class:`MathError`
    comes out with ``block_index`` set to its Fourier block and any other
    failure as a BlockOpError, as from :func:`lift_multi`.
    """
    out = []
    for i, (indices, stack) in enumerate(batches):
        extra = [arg[i] for arg in args]
        try:
            out.append(fn(stack, *extra))
        except Exception:
            _raise_at_block(fn, indices, stack, extra)
            raise
    return out


def _raise_at_block(fn, indices, stack, extra) -> None:
    for j, k in enumerate(indices):
        try:
            fn(stack[j:j + 1], *(x[j:j + 1] for x in extra))
        except MathError as exc:
            if exc.block_index is None:
                exc.block_index = k
            raise
        except Exception as exc:
            raise BlockOpError(f"block operation failed: {exc}", k) from exc


def join_batches(batches, outs, p: int) -> FourierBlocks:
    """Mirrored blocks from one result stack per batch of
    :func:`half_batches`; real-forced results are stored as real."""
    half = np.empty((p // 2 + 1,) + outs[0].shape[1:], dtype=np.complex128)
    for (indices, _), out in zip(batches, outs):
        half[list(indices)] = out
    return mirrored(half, p)


def tprod_fourier(a: Tensor3, b: Tensor3) -> Tensor3:
    """Transform-domain t-product: rfft, one stacked product of blocks
    0..floor(p/2), and an irfft that certifies the DC and Nyquist blocks."""
    prods = np.fft.rfft(a.array, axis=0) @ np.fft.rfft(b.array, axis=0)
    return _certified_irfft(prods, a.dims[2], float(np.abs(prods).max()))[0]
