"""Dense third-order tensors and the exact t-product algebra.

A tensor of size m x n x p is stored slice-major: a contiguous float64
array of shape (p, m, n) whose entry [k, i, j] is the (i, j) element of
frontal slice k (all 0-based in code; documentation counts slices 1..p).
With this layout ``unfold``/``fold`` are plain reshapes.

The t-product itself is ``fold(bcirc(a) @ unfold(b))``; the equivalent
Fourier path is the block product of :mod:`tprod.fourier`, and
:func:`tprod` exposes both for cross-checking.  ``bcirc`` builds the mp x
np matrix with one copy, from a strided view of the doubled slice stack
in which block (r, c) is slice (r - c) mod p, never block by block.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, MathError, NotBlockCirculant

# Direct block-circulant multiply below this size, Fourier path above it.
# Both stay: gen(..., "rank_deficient"), TSvdResult.reconstruct, users and
# the benchmark's tprod op call tprod on paper-size tensors, where the
# Fourier path's three FFTs cost 2.6-3.6x the whole direct product at
# every desk_scale shape (3x3x4: 9.9 us direct, 33.8 us Fourier; min of
# 5 x 2000 calls, one BLAS thread, Intel Xeon), and bcirc's O(p^2 mn) loses
# above the limit.  An explicit direct product above the limit sums over
# the p shifts instead of building the circulant.  tprod goes direct when
# p * min(m, n, l) is within the limit.  The same limit decides where the
# residual reports verify (fourier.operands): on the slices, with these
# circulant products and no transform, when p * max(m, n) of every operand
# is within it, so that no circulant they build exceeds 64 x 64, and on
# the half spectrum above it (penrose_report at 3x3x4: 86 us on the half
# spectrum, 44 us on the slices; same machine and method).
DIRECT_PATH_LIMIT = 64

# Structural tolerance for bcirc_inv: 1e-10 * max|entry|.
CIRC_RTOL = 1e-10


class Tensor3:
    """Immutable dense real m x n x p tensor.

    Parameters
    ----------
    data : array_like
        Shape (p, m, n): the p frontal slices in order, finite and real
        (a complex array only with imaginary part exactly zero).
    """

    __slots__ = ("_data", "__weakref__")

    def __init__(self, data):
        arr = _real(data, "tensor entries").astype(np.float64, order="C")
        if arr.ndim != 3:
            raise DimensionError(
                f"expected a (p, m, n) slice stack, got {arr.ndim} axes"
            )
        if min(arr.shape) < 1:
            raise DimensionError(f"dimensions must be positive, got {arr.shape}")
        self._set(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor3":
        """Wrap a fresh float64 (p, m, n) array without copying it."""
        t = cls.__new__(cls)
        t._set(arr)
        return t

    def _set(self, arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def zeros(cls, m: int, n: int, p: int) -> "Tensor3":
        return cls(np.zeros((p, m, n)))

    @classmethod
    def identity(cls, n: int, p: int) -> "Tensor3":
        """The multiplicative identity: slice 1 is I_n, later slices are 0."""
        return cls(_identity_slices(n, p))

    @property
    def dims(self) -> tuple[int, int, int]:
        """(m, n, p): slice height, slice width, number of slices."""
        p, m, n = self._data.shape
        return m, n, p

    @property
    def array(self) -> np.ndarray:
        """Read-only (p, m, n) view of the slice stack."""
        return self._data

    def slice(self, k: int) -> np.ndarray:
        """Frontal slice k (0-based)."""
        return self._data[k]

    @property
    def max_abs(self) -> float:
        return float(np.abs(self._data).max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.array_equal(self._data, other._data)
        )

    __hash__ = None

    def allclose(self, other: "Tensor3", atol: float = 1e-12) -> bool:
        return self._data.shape == other._data.shape and bool(
            np.abs(self._data - other._data).max() <= atol
        )

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if not isinstance(other, Tensor3):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.dims != other.dims:
            raise DimensionError(f"dims {self.dims} != {other.dims}")
        return _entrywise(np.subtract, self._data, other._data,
                          f"a difference of {_shape(self.dims)} tensors")

    @property
    def T(self) -> "Tensor3":
        return transpose(self)

    def __repr__(self) -> str:
        m, n, p = self.dims
        return f"Tensor3({m}x{n}x{p})"


@functools.lru_cache(maxsize=16)
def _identity_slices(n: int, p: int) -> np.ndarray:
    """Read-only slices of the n x n x p identity: I_n, then zeros.  The
    16 most recently used (n, p) are kept, not built again.  A dimension
    below 1 is a DimensionError."""
    if min(n, p) < 1:
        raise DimensionError(f"dimensions must be positive, got {(n, n, p)}")
    eye = np.zeros((p, n, n))
    eye[0] = np.eye(n)
    eye.setflags(write=False)
    return eye


class BlockCirculant:
    """An mp x np matrix viewed as a p x p grid of m x n blocks.

    The constructor checks shape divisibility and, as :class:`Tensor3`
    does, realness and finiteness; the circulant structure itself is
    validated by :func:`bcirc_inv`.
    """

    __slots__ = ("_matrix", "_m", "_n", "_p")

    def __init__(self, matrix, p: int):
        mat = _real(matrix, "block circulant entries").astype(np.float64)
        if mat.ndim != 2:
            raise DimensionError("block circulant data must be a matrix")
        if p < 1 or mat.shape[0] % p or mat.shape[1] % p:
            raise DimensionError(
                f"matrix shape {mat.shape} is not divisible into {p}x{p} blocks"
            )
        if not np.isfinite(mat).all():
            raise ValueError("block circulant entries must be finite (no NaN/Inf)")
        self._set(mat, p)

    @classmethod
    def _wrap(cls, mat: np.ndarray, p: int) -> "BlockCirculant":
        """Wrap a fresh float64 matrix of valid shape without copying it."""
        b = cls.__new__(cls)
        b._set(mat, p)
        return b

    def _set(self, mat: np.ndarray, p: int) -> None:
        mat.setflags(write=False)
        self._matrix = mat
        self._p = p
        self._m = mat.shape[0] // p
        self._n = mat.shape[1] // p

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def block_dims(self) -> tuple[int, int, int]:
        return self._m, self._n, self._p

    def block(self, r: int, c: int) -> np.ndarray:
        m, n = self._m, self._n
        return self._matrix[r * m:(r + 1) * m, c * n:(c + 1) * n]

    def circulant_deviation(self) -> float:
        """Max deviation from the block circulant of the first block column."""
        m, n, p = self.block_dims
        first = self._matrix[:, :n].reshape(p, m, n)
        return float(np.abs(self._matrix - _circulant(first)).max())

    def __repr__(self) -> str:
        m, n, p = self.block_dims
        return f"BlockCirculant({m * p}x{n * p}, p={p})"


def unfold(t: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an (mp, n) matrix."""
    m, n, p = t.dims
    return t.array.reshape(m * p, n).copy()


def fold(matrix, p: int) -> Tensor3:
    """Inverse of :func:`unfold`; rows must divide evenly into p slices."""
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise DimensionError("fold expects a matrix")
    if p < 1 or mat.shape[0] % p:
        raise DimensionError(
            f"{mat.shape[0]} rows are not divisible into {p} slices"
        )
    return Tensor3(mat.reshape(p, mat.shape[0] // p, mat.shape[1]))


def bcirc(t: Tensor3) -> BlockCirculant:
    """Embed a tensor into its block-circulant matrix.

    Block (r, c) of the result is frontal slice ((r - c) mod p); the first
    block column reads slice 1..p top to bottom and each later column is the
    cyclic downshift of the previous one.
    """
    return BlockCirculant._wrap(_circulant(t.array), t.dims[2])


def _circulant(stack: np.ndarray) -> np.ndarray:
    """The (mp, np) block circulant of a (p, m, n) slice stack, in one copy.

    With d = (slices 2..p, slices 1..p), block (r, c) is d[p - 1 + r - c]:
    a strided view of d with step +1 slice down the block rows and -1
    slice along the block columns.
    """
    p, m, n = stack.shape
    d = np.concatenate((stack[1:], stack))
    s0, s1, s2 = d.strides
    blocks = np.ndarray((p, m, p, n), np.float64, d, (p - 1) * s0,
                        (s0, s1, -s0, s2))
    return blocks.copy().reshape(m * p, n * p)


def bcirc_inv(b: BlockCirculant) -> Tensor3:
    """Recover the tensor whose block-circulant embedding is ``b``.

    Raises NotBlockCirculant when the blocks deviate from circulant
    structure beyond 1e-10 * max|entry|.
    """
    dev = b.circulant_deviation()
    tol = CIRC_RTOL * float(np.abs(b.matrix).max())
    if dev > tol:
        raise NotBlockCirculant(
            f"blocks deviate from circulant structure by {dev:.3e} "
            f"(tolerance {tol:.3e})"
        )
    m, n, p = b.block_dims
    return fold(b.matrix[:, :n], p)


# The operands are finite, so a non-finite product has overflowed; numpy's
# warning about it is kept quiet, and tprod raises MathError instead.  As a
# decorator, errstate costs less per call than as a with block.
@np.errstate(over="ignore", invalid="ignore")
def tprod(a: Tensor3, b: Tensor3, path: str = "auto") -> Tensor3:
    """t-product of an m x n x p tensor with an n x l x p tensor.

    ``path`` selects the computation: "direct" is the block-circulant
    multiply, "fourier" the reports' block product ``to_fourier(a) @
    to_fourier(b)`` turned back into slices by their certified irfft,
    "auto" picks direct at desk scale and fourier above it.  Above desk
    scale the direct path forms the same sums without the circulant
    (:func:`_shift_sum`).  A
    product beyond the float64 range raises MathError on either path.
    """
    ma, na, pa = a.dims
    mb, nb, pb = b.dims
    if na != mb or pa != pb:
        raise not_conformable(a.dims, b.dims)
    desk = pa * min(ma, na, nb) <= DIRECT_PATH_LIMIT
    if path == "auto":
        path = "direct" if desk else "fourier"
    if path not in ("direct", "fourier"):
        raise ValueError(f"unknown tprod path {path!r}")
    try:
        if path == "direct" and desk:
            return Tensor3._wrap(_circulant_product(a.array, b.array))
        if path == "direct":
            return Tensor3._wrap(_shift_sum(a.array, b.array))
        from .fourier import _certified_irfft, to_fourier

        prod = to_fourier(a) @ to_fourier(b)
        return Tensor3._wrap(_certified_irfft(prod.blocks, pa)[0])
    except ValueError as exc:  # Tensor3 refuses a non-finite product
        raise product_overflow(a.dims, b.dims) from exc


def _circulant_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The slices of fold(bcirc(a) @ unfold(b)) for (p, m, n) and (p, n, l)
    slice stacks, through the circulant matrix without its BlockCirculant
    wrapper: at desk scale the wrapper is a tenth of the product's time."""
    p, m, _ = a.shape
    l = b.shape[2]
    return (_circulant(a) @ b.reshape(-1, l)).reshape(p, m, l)


def _shift_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The slices of fold(bcirc(a) @ unfold(b)) for (p, m, n) and (p, n, l)
    slice stacks, without the (mp, np) circulant: c_k = sum_s a_s @
    b_((k - s) mod p), accumulated over the p shifts s in O(p(mn + nl +
    ml)) memory.

    Row i of d is row i of every slice of b, twice over, so for shift s
    the columns (p - s)l .. (2p - s)l - 1 of d hold b_(-s), ..., b_(p-1-s)
    in turn, and each shift is one (m, n) x (n, pl) product.
    """
    p, m, n = a.shape
    l = b.shape[2]
    d = np.tile(b.transpose(1, 0, 2).reshape(n, p * l), 2)
    c = np.zeros((m, p * l))
    for s in range(p):
        c += a[s] @ d[:, (p - s) * l:(2 * p - s) * l]
    return np.ascontiguousarray(c.reshape(m, p, l).transpose(1, 0, 2))


def not_conformable(a_dims, b_dims) -> DimensionError:
    """The error of a t-product whose operand dims (m, n, p) do not
    conform, on any path."""
    return DimensionError(
        f"cannot t-multiply {_shape(a_dims)} by {_shape(b_dims)}"
    )


def product_overflow(a_dims, b_dims) -> MathError:
    """The error of a t-product of finite operands beyond the float64
    range, on any path."""
    return MathError(
        f"t-product of {_shape(a_dims)} by {_shape(b_dims)} overflowed the "
        "float64 range"
    )


def _shape(dims) -> str:
    return "x".join(map(str, dims))


def transpose(t: Tensor3) -> Tensor3:
    """Tensor transpose: transpose each slice, reverse slices 2..p.

    Satisfies bcirc(transpose(t)) == bcirc(t).T exactly.
    """
    return Tensor3._wrap(_transpose_slices(t.array))


def _transpose_slices(stack: np.ndarray) -> np.ndarray:
    """The slice stack of the tensor transpose of a (p, m, n) slice stack,
    fresh and C-ordered, as :func:`_circulant` needs it."""
    return np.ascontiguousarray(
        np.concatenate((stack[:1], stack[:0:-1])).transpose(0, 2, 1))


def add(a: Tensor3, b: Tensor3) -> Tensor3:
    if a.dims != b.dims:
        raise DimensionError(f"dims {a.dims} != {b.dims}")
    return _entrywise(np.add, a.array, b.array,
                      f"a sum of {_shape(a.dims)} tensors")


def scalar_mul(alpha: float, t: Tensor3) -> Tensor3:
    """alpha * t; a non-finite or complex alpha is a ValueError."""
    alpha = float(_real(alpha, "the scalar"))
    if not np.isfinite(alpha):
        raise ValueError("the scalar must be finite (no NaN/Inf)")
    return _entrywise(np.multiply, alpha, t.array,
                      f"a multiple of a {_shape(t.dims)} tensor")


@np.errstate(over="ignore", invalid="ignore")
def _entrywise(ufunc, x, y, what: str) -> Tensor3:
    """The tensor ufunc(x, y) of finite operands, whose non-finite entries
    can only have overflowed: a MathError, as in :func:`tprod`, with
    numpy's warning kept quiet."""
    try:
        return Tensor3(ufunc(x, y))
    except ValueError as exc:
        raise MathError(f"{what} overflowed the float64 range") from exc


def _real(data, what: str) -> np.ndarray:
    """``data`` as an array of its real parts.  An imaginary part that is
    not exactly zero is refused, never silently dropped."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr) and arr.imag.any():
        raise ValueError(f"{what} must be real (nonzero imaginary part)")
    return arr.real


def _require_square(a, name: str) -> None:
    """Refuse a tensor, or a half spectrum, whose slices are not square."""
    m, n, _ = a.dims
    if m != n:
        raise DimensionError(f"{name} requires square slices, got {m}x{n}")


def power(t: Tensor3, k: int) -> Tensor3:
    """k-th t-product power of a square-slice tensor; t^0 is the identity."""
    _require_square(t, "power")
    if k < 0:
        raise ValueError("power exponent must be nonnegative")
    result = Tensor3.identity(*t.dims[1:])
    for _ in range(k):
        result = tprod(result, t)
    return result
