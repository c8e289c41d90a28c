"""Reference results computed with numpy alone, independent of tprod.

The t-product is blockwise matrix algebra after a DFT along the slice axis,
so ``np.fft`` plus batched ``np.linalg`` gives every reference value.  A
(p, m, n) array holds the p frontal slices, as ``Tensor3.array`` does.

The comparisons are normwise relative errors.  A result whose own residual
report passes can still be wrong when that report is vacuous, so the
benchmark counts a mismatch here as a failure of the op.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps

# A block's singular values below this share of its largest are treated as
# zero by the reference pseudoinverse.  It sits far above the rounding noise
# of the transforms (about p * eps) and far below the spread of the
# singular values of the generated full-rank blocks.
PINV_RTOL = 1e-9

# Allowed normwise relative error of tprod outputs and of singular values,
# which are perfectly conditioned: 1e3 times the eps * p rounding bound.
def value_tolerance(p: int) -> float:
    return 1e3 * EPS * p


def _rel_err(x, ref) -> float:
    scale = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(np.asarray(x) - ref))
    return diff / scale if scale > 0 else diff


def tprod_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    fa = np.fft.fft(a, axis=0)
    fb = np.fft.fft(b, axis=0)
    return np.fft.ifft(fa @ fb, axis=0).real


def fourier_singular_values_ref(a: np.ndarray) -> np.ndarray:
    """Per-block singular values, shape (p, min(m, n)), nonincreasing."""
    return np.linalg.svd(np.fft.fft(a, axis=0), compute_uv=False)


def pinv_ref(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Moore-Penrose inverse and its condition number.

    The condition number is the largest ratio, over blocks, of the largest
    kept singular value to the smallest kept one.
    """
    fa = np.fft.fft(a, axis=0)
    u, s, vh = np.linalg.svd(fa, full_matrices=False)
    keep = s > PINV_RTOL * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    x_blocks = np.conj(np.swapaxes(vh, 1, 2)) @ (s_inv[:, :, None] * np.conj(np.swapaxes(u, 1, 2)))
    smallest = np.where(keep, s, np.inf).min(axis=1)
    cond = float(np.max(s[:, 0] / smallest)) if keep.any() else 1.0
    return np.fft.ifft(x_blocks, axis=0).real, cond


def check_tprod(a, b, c) -> float | None:
    """None when ``c`` matches a * b, else the relative error."""
    err = _rel_err(c, tprod_ref(a, b))
    return None if err <= value_tolerance(a.shape[0]) else err


def check_singular_values(a, sigma) -> float | None:
    err = _rel_err(sigma, fourier_singular_values_ref(a))
    return None if err <= value_tolerance(a.shape[0]) else err


def check_pinv(a, x) -> float | None:
    """None when ``x`` matches the pseudoinverse of ``a``.

    A pseudoinverse is perturbed by up to cond times the perturbation of
    the data, so the allowance is the value tolerance times cond.
    """
    ref, cond = pinv_ref(a)
    err = _rel_err(x, ref)
    return None if err <= value_tolerance(a.shape[0]) * cond else err
