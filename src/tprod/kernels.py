"""Per-block matrix decompositions and matrix generalized inverses.

These are thin, contract-checked wrappers over LAPACK (via numpy/scipy)
plus the pieces LAPACK does not provide: deterministic phase conventions,
real-first Schur ordering, a diagonalizable-regime Jordan form, the rank
normal form, and Drazin/group inverses.  The SVD, pseudoinverse, Drazin,
Schur and Jordan kernels also take stacks of matrices, which the tensor
ops run on the half spectrum through ``FourierBlocks.map``; the matrix
functions are the stack of one.  :func:`hermitian_stack` is the Schur and
the Jordan kernel of Hermitian stacks.  Every rank decision goes through one
:class:`RankCutoff`, and the Jordan form refuses any matrix whose
eigenvector basis is numerically rank deficient (DEFECT_RANK_TOL).
LAPACK's drivers assume finite input: every kernel refuses a stack holding
NaN or inf with the one ValueError of :func:`_require_finite`.
Everything here is deterministic for fixed input, so every tensor op
gives bit-identical results run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DefectiveBlock,
    DimensionError,
    GroupInverseNotExist,
    MathError,
    SwapFailure,
)

EIG_CLUSTER_GAP = 1e-8   # relative grid on which eigenvalues are sorted
DEFECT_RANK_TOL = 1e-6   # sigma_min/sigma_max floor of an eigenvector basis

POWER_OVERFLOW = "a matrix power overflowed the float64 range"


EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class RankCutoff:
    """The rule behind every rank decision on a tensor or a matrix.

    A singular value of the j-th power of a block counts toward its rank
    when it exceeds ``rtol * scale**j``.  ``scale`` is one number for the
    whole tensor, so a small block is judged against the transform noise
    of the tensor, not against its own size.
    """

    rtol: float
    scale: float

    def at(self, power: int = 1) -> float:
        """The threshold for singular values of the power-th power; inf
        where scale**power leaves the float64 range."""
        try:
            return self.rtol * float(self.scale) ** int(power)
        except OverflowError:
            return math.inf

    def rank(self, sigma: np.ndarray, power: int = 1) -> np.ndarray:
        """Ranks from singular values ``sigma`` of shape (..., r)."""
        return np.count_nonzero(sigma > self.at(power), axis=-1)

    def invertible(self, sigma: np.ndarray) -> np.ndarray:
        """Whether each square matrix is invertible, from its singular
        values ``sigma`` of shape (..., n), largest first: the smallest
        lies above the cutoff, so its rank is n and its Drazin index 0."""
        return sigma[..., -1] > self.at()


def rank_cutoff(sigma, dims) -> RankCutoff:
    """The rank cutoff of an m x n x p tensor.

    ``sigma`` holds the singular values of its Fourier blocks, and the
    scale is their largest, S = max_k sigma_1(A_k) =
    ||bcirc(A)||_2.  ``rtol`` = p * max(m, n) * eps is
    ``numpy.linalg.matrix_rank``'s rule for the mp x np matrix bcirc(A).
    A matrix is the case p = 1, with S its largest singular value.
    """
    m, n, p = dims
    rtol = p * max(m, n) * EPS
    scale = float(np.max(sigma, initial=0.0))
    return RankCutoff(rtol, scale)


def _matrix_cutoff(a: np.ndarray, sigma: np.ndarray) -> RankCutoff:
    return rank_cutoff(sigma, (*a.shape[-2:], 1))


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")


def _lapack(fn, failure: str, a: np.ndarray, **kwargs):
    """``fn(a, **kwargs)`` for numpy's svd, eig or eigh ``fn``: a non-finite
    ``a`` is refused, and a LinAlgError becomes ConvergenceError(failure).
    np.linalg.inv, in drazin_from_powers and ginverses, runs
    unguarded: a guarded SVD of the same stack always runs before it."""
    _require_finite(a)
    try:
        return fn(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{failure}: {exc}") from exc


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, nonincreasing, of a matrix or a stack of them."""
    return _lapack(np.linalg.svd, "SVD did not converge", a, compute_uv=False)


def svd_reduced(a: np.ndarray):
    """Thin (u, sigma, vh) of a matrix or a stack, without phase fixing."""
    return _lapack(np.linalg.svd, "SVD did not converge", a,
                   full_matrices=False)


def _pivot_phases(x: np.ndarray) -> np.ndarray:
    """Unit phase of the largest-magnitude entry of each column of a
    stack (b, r, c); 1 for a zero column."""
    mag = np.abs(x)
    rows = np.argmax(mag, axis=1)
    at = (np.arange(x.shape[0])[:, None], rows, np.arange(x.shape[2]))
    pivot, size = x[at], mag[at]
    return np.divide(pivot, size, out=np.ones_like(pivot), where=size != 0)


def _fix_phases(u: np.ndarray, v: np.ndarray):
    """Deterministic phase convention for stacks of singular-vector pairs.

    The largest-magnitude entry of each left singular vector is made real
    positive; the matching right singular vector absorbs the same factor so
    the product is unchanged.  Surplus columns (null-space completions) are
    normalized independently.
    """
    paired = min(u.shape[-1], v.shape[-1])
    phase = np.conj(_pivot_phases(u))
    u = u * phase[..., None, :]
    v = v.copy()
    v[..., :paired] *= phase[..., None, :paired]
    if v.shape[-1] > paired:
        v[..., paired:] *= np.conj(_pivot_phases(v[..., paired:]))[..., None, :]
    return u, v


def sigma_matrices(sigma: np.ndarray, m: int, n: int) -> np.ndarray:
    """The m x n diagonal matrices of values (..., min(m, n)), such as
    singular values or eigenvalues, in their dtype."""
    out = np.zeros(sigma.shape[:-1] + (m, n), dtype=sigma.dtype)
    r = np.arange(sigma.shape[-1])
    out[..., r, r] = sigma
    return out


@dataclass(frozen=True)
class MatrixSvd:
    """Full SVD a = u @ sigma_matrix @ v.conj().T with sigma nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.v.shape[0]

    def sigma_matrix(self) -> np.ndarray:
        return sigma_matrices(self.sigma, *self.shape)

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.sigma_matrix().astype(self.u.dtype) @ self.v.conj().T


def svd_stack(stack: np.ndarray):
    """Full SVDs of a stack of matrices with a deterministic phase convention.

    Returns stacks (u, sigma, v) with a = u @ diag(sigma) @ v^H, full
    orthogonal/unitary factors, real for real input.  A zero matrix gets
    identity factors by convention.
    """
    stack = np.asarray(stack)
    m, n = stack.shape[-2:]
    u, s, vh = _lapack(np.linalg.svd, "SVD did not converge", stack,
                       full_matrices=True)
    u, v = _fix_phases(u, np.conj(vh.swapaxes(-1, -2)))
    zero = ~stack.any(axis=(-2, -1))
    if zero.any():
        u[zero] = np.eye(m)
        v[zero] = np.eye(n)
    return u, s, v


def svd(a: np.ndarray) -> MatrixSvd:
    """Singular value decomposition of one matrix; see :func:`svd_stack`."""
    u, s, v = svd_stack(np.asarray(a)[None])
    return MatrixSvd(u[0], s[0], v[0])


@dataclass(frozen=True)
class MatrixSchur:
    """Schur form a = u @ t @ u.conj().T.

    ``partition`` lists the diagonal block sizes (1 or 2) for the real
    quasi-triangular variant and is None for the complex variant.
    """

    u: np.ndarray
    t: np.ndarray
    partition: tuple[int, ...] | None = None

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.t @ self.u.conj().T


def schur_stack(stack: np.ndarray):
    """Schur forms (u, t), a = u @ t @ u^H, of a (b, n, n) stack.

    A complex stack gets complex Schur forms: unitary u, upper triangular
    t.  A real stack gets real Schur forms with all 1x1 diagonal blocks
    before the 2x2 blocks, reordered by orthogonal block swaps inside
    LAPACK; an ill-conditioned exchange raises SwapFailure.  One ``gees``
    lookup, one workspace query and one finiteness check serve the whole
    stack, and the driver runs once per matrix.
    """
    # here, not at the top: only Schur pays for scipy's import
    from scipy.linalg.lapack import get_lapack_funcs

    stack = np.asarray(stack)
    _require_finite(stack)
    u, t = np.empty_like(stack), np.empty_like(stack)
    if stack.size == 0:
        return u, t
    (gees,) = get_lapack_funcs(("gees",), (stack,))
    lwork = int(gees(lambda *x: None, stack[0], lwork=-1)[-2][0].real)
    real = not np.iscomplexobj(stack)
    # select the real eigenvalues, which LAPACK then moves to the top
    select = (lambda x, y: y == 0) if real else (lambda x: None)
    n = stack.shape[-1]
    for i, a in enumerate(stack):
        out = gees(select, a, lwork=lwork, sort_t=int(real))
        info = out[-1]
        if info in (n + 1, n + 2):
            raise SwapFailure("Schur block exchange failed: " + (
                "Eigenvalues could not be separated for reordering."
                if info == n + 1 else
                "Leading eigenvalues do not satisfy sort condition."))
        if info > 0:
            raise ConvergenceError("Schur iteration failed: Schur form not "
                                   "found. Possibly ill-conditioned.")
        t[i], u[i] = out[0], out[-3]
        if real:
            sizes = _scan_quasi_partition(t[i])
            if list(sizes) != sorted(sizes):
                raise SwapFailure(
                    "reordered Schur form does not have all 1x1 blocks first"
                )
    return u, t


def schur_complex(a: np.ndarray) -> MatrixSchur:
    """Complex Schur decomposition: unitary u, upper triangular t; see
    :func:`schur_stack`."""
    a = np.asarray(a, dtype=complex)
    _require_square(a, "schur_complex")
    u, t = schur_stack(a[None])
    return MatrixSchur(u[0], t[0], None)


def schur_real_ordered(a: np.ndarray) -> MatrixSchur:
    """Real Schur form with all 1x1 diagonal blocks before the 2x2 blocks;
    see :func:`schur_stack`."""
    a = np.asarray(a, dtype=np.float64)
    _require_square(a, "schur_real_ordered")
    u, t = schur_stack(a[None])
    return MatrixSchur(u[0], t[0], _scan_quasi_partition(t[0]))


def _scan_quasi_partition(t: np.ndarray) -> tuple[int, ...]:
    """Diagonal block sizes of a quasi-triangular matrix.

    LAPACK's Schur forms and :func:`_real_form` store exact zeros below the
    band, so the scan tests subdiagonal entries against zero.
    """
    n = t.shape[0]
    sizes = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            sizes.append(2)
            i += 2
        else:
            sizes.append(1)
            i += 1
    return tuple(sizes)


@dataclass(frozen=True)
class MatrixJordan:
    """Similarity a = p @ j @ inv(p) with j in (real) Jordan form.

    Only the diagonalizable regime is supported: j is diagonal over the
    complex field, or block diagonal with 1x1 blocks (real eigenvalues,
    first) and 2x2 rotation-scaling blocks [[a, b], [-b, a]] (conjugate
    pairs a +- ib, b > 0) over the real field.
    """

    p: np.ndarray
    j: np.ndarray
    partition: tuple[int, ...]

    def reconstruct(self) -> np.ndarray:
        return self.p @ self.j @ np.linalg.inv(self.p)


def jordan_stack(stack: np.ndarray):
    """Jordan forms (p, j), a = p @ j @ inv(p), of a stack of matrices in
    the diagonalizable regime.

    One ``np.linalg.eig`` runs on the whole stack.  Each matrix's
    eigenvalues are sorted by (real, imag), quantized at EIG_CLUSTER_GAP,
    and its eigenvector columns get unit norm with their largest entry
    real positive.  A complex stack gets j = diag(eigenvalues), a real
    stack the real forms of :func:`_real_form`.  A matrix whose eigenvector
    basis has sigma_min <= DEFECT_RANK_TOL * sigma_max raises
    DefectiveBlock: it is defective, or too close to it for its Jordan
    structure to be computed reliably.
    """
    w, v = _lapack(np.linalg.eig, "eigendecomposition failed", stack)
    # lexicographic (real, imag) order, quantized on the EIG_CLUSTER_GAP
    # grid so that rounding fuzz cannot reorder effectively equal parts
    grid = EIG_CLUSTER_GAP * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))
    order = np.lexsort(
        (w.imag, w.real, np.round(w.imag / grid), np.round(w.real / grid)),
        axis=-1,
    )
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    sigma = singular_values(v)
    if (sigma[:, -1] <= DEFECT_RANK_TOL * sigma[:, 0]).any():
        raise DefectiveBlock(
            "eigenvector basis has sigma_min/sigma_max = "
            f"{(sigma[:, -1] / sigma[:, 0]).min():.3e}, at or below "
            f"{DEFECT_RANK_TOL:g}: the matrix is defective or nearly so"
        )
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    v = v * np.conj(_pivot_phases(v))[:, None, :]
    if np.iscomplexobj(stack):
        return v, sigma_matrices(w, *v.shape[-2:])
    forms = [_real_form(wk, vk) for wk, vk in zip(w, v)]
    return tuple(np.stack(family) for family in zip(*forms))


def hermitian_stack(stack: np.ndarray):
    """Eigendecompositions (v, j), a = v @ j @ v^H, of a stack of Hermitian
    matrices (real symmetric for a real stack): one ``np.linalg.eigh``
    call, which reads the lower triangles.

    v is unitary, real for a real stack, and each of its columns has its
    largest-magnitude entry real positive.  j is the real diagonal matrix
    of the eigenvalues in LAPACK's nondecreasing order, the order
    :func:`jordan_stack` gives real eigenvalues.  So (v, j) is a Schur form
    with triangular j and a Jordan form with cond(v) = 1: no eigenvector
    basis is refused.
    """
    w, v = _lapack(np.linalg.eigh, "eigendecomposition failed", stack)
    v = v * np.conj(_pivot_phases(v))[:, None, :]
    return v, sigma_matrices(w, *stack.shape[-2:])


def _real_form(w: np.ndarray, v: np.ndarray):
    """(p, j) of a real matrix from its sorted eigenvalues and normalized
    eigenvectors: real eigenvalues first as 1x1 blocks, then for each
    a + ib (b > 0) with eigenvector x + iy the block [[a, b], [-b, a]]
    acting on the real invariant plane of the columns (x, y).  LAPACK
    returns the eigenvalues of a real matrix in exact conjugate pairs."""
    real, upper = w.imag == 0.0, w.imag > 0.0
    r, n = np.count_nonzero(real), len(w)
    p = np.empty((n, n))
    p[:, :r] = v[:, real].real
    p[:, r::2] = v[:, upper].real
    p[:, r + 1::2] = v[:, upper].imag
    j = np.zeros((n, n))
    j[np.arange(r), np.arange(r)] = w[real].real
    c = np.arange(r, n, 2)
    j[c, c] = j[c + 1, c + 1] = w[upper].real
    j[c, c + 1] = w[upper].imag
    j[c + 1, c] = -w[upper].imag
    return p, j


def jordan_complex(a: np.ndarray) -> MatrixJordan:
    """Complex Jordan form in the diagonalizable regime: j = diag(eigs);
    see :func:`jordan_stack`."""
    a = np.asarray(a, dtype=complex)
    _require_square(a, "jordan_complex")
    p, j = jordan_stack(a[None])
    return MatrixJordan(p[0], j[0], (1,) * a.shape[0])


def jordan_real(a: np.ndarray) -> MatrixJordan:
    """Real Jordan form in the diagonalizable regime, real eigenvalues
    first; see :func:`jordan_stack` and :func:`_real_form`."""
    if np.iscomplexobj(a):
        raise ValueError("jordan_real requires a real matrix")
    a = np.asarray(a, dtype=np.float64)
    _require_square(a, "jordan_real")
    p, j = jordan_stack(a[None])
    return MatrixJordan(p[0], j[0], _scan_quasi_partition(j[0]))


@dataclass(frozen=True)
class RankNormalForm:
    """Invertible u, v with inv(u) @ a @ inv(v) = [[I_r, 0], [0, 0]]."""

    u: np.ndarray
    v: np.ndarray
    r: int

    def canonical(self) -> np.ndarray:
        n_rows = self.u.shape[0]
        n_cols = self.v.shape[0]
        e = np.zeros((n_rows, n_cols))
        e[:self.r, :self.r] = np.eye(self.r)
        return e


def rank_normal_factors(u, sigma, v, cutoff: RankCutoff):
    """Stacks (u', e, v') of rank normal forms a = u' @ e @ v' from the
    full SVD stacks of :func:`svd_stack`.

    e is [[I_r, 0], [0, 0]] with r the number of singular values above the
    cutoff; u' absorbs those r singular values (padded with ones so it
    stays invertible) and v' is the conjugate-transposed right factor.
    """
    m, n = u.shape[-1], v.shape[-1]
    r = min(m, n)
    keep = sigma > cutoff.at()
    scale = np.ones(sigma.shape[:-1] + (m,))
    scale[..., :r] = np.where(keep, sigma, 1.0)
    e = np.zeros(sigma.shape[:-1] + (m, n))
    e[..., np.arange(r), np.arange(r)] = keep
    return u * scale[..., None, :], e, np.conj(v.swapaxes(-1, -2))


def rank_normal_form(
    a: np.ndarray, cutoff: RankCutoff | None = None
) -> RankNormalForm:
    """Rank normal form built from the SVD; see :func:`rank_normal_factors`.
    The rank counts the singular values above the cutoff (default: a's
    own)."""
    a = np.asarray(a)
    u, sigma, v = svd_stack(a[None])
    if cutoff is None:
        cutoff = _matrix_cutoff(a, sigma)
    u, _, v = rank_normal_factors(u, sigma, v, cutoff)
    return RankNormalForm(u[0], v[0], int(cutoff.rank(sigma[0])))


@np.errstate(over="ignore", invalid="ignore")
def pinv_from_svd(u, sigma, vh, threshold: float, below: float = 0.0):
    """v diag(d) u^H from thin or full SVD factors of a matrix or a stack:
    d = 1/sigma above ``threshold`` and ``below`` at or under it, so the
    default ``below`` = 0 gives the pseudoinverse.  A 1/sigma beyond the
    float64 range leaves non-finite entries, without a warning: the tensor
    ops refuse them when they assemble the real tensor, naming the block."""
    r = sigma.shape[-1]
    d = np.divide(1.0, sigma, out=np.full_like(sigma, below),
                  where=sigma > threshold)
    return np.conj(vh[..., :r, :].swapaxes(-1, -2)) @ (
        d[..., :, None] * np.conj(u[..., :r].swapaxes(-1, -2))
    )


def mp_inverse(a: np.ndarray, cutoff: RankCutoff | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a matrix or a stack of matrices, with the
    singular values at or below the cutoff (default: a's own) as zero; an
    inverse beyond the float64 range is a MathError."""
    a = np.asarray(a)
    u, s, vh = svd_reduced(a)
    if cutoff is None:
        cutoff = _matrix_cutoff(a, s)
    x = pinv_from_svd(u, s, vh, cutoff.at())
    if not np.isfinite(x).all():
        raise MathError("the pseudoinverse overflowed the float64 range")
    return x


@np.errstate(over="ignore", invalid="ignore")
def drazin_indices(stack: np.ndarray, cutoff: RankCutoff, sigma: np.ndarray):
    """Drazin indices of a stack of square matrices, and their powers.

    The index of a is the least k with rank(a^(k+1)) == rank(a^k), at most
    n; rank(a^j) counts the singular values above ``cutoff.at(j)``.
    ``sigma`` are the singular values of the stack.  Powers are formed one
    at a time and the loop stops once every index is known, so ``powers[j]``
    is a^j for j = 1..max(index) + 1.  A power beyond the float64 range is
    a MathError, raised before any SVD sees it.
    """
    b, n, _ = stack.shape
    index = np.full(b, -1)
    prev = np.full(b, n)
    powers = [None, stack]
    for j in range(1, n + 2):
        if j > 1:
            powers.append(powers[-1] @ stack)
            if not np.isfinite(powers[-1]).all():
                raise MathError(POWER_OVERFLOW)
            sigma = singular_values(powers[-1])
        rank = cutoff.rank(sigma, j)
        index[(index < 0) & (rank == prev)] = j - 1
        if (index >= 0).all():
            break
        prev = rank
    index[index < 0] = n
    return index, powers


def drazin_stack(stack: np.ndarray, cutoff: RankCutoff, sigma: np.ndarray):
    """Drazin inverses and indices of a stack of square matrices: the
    indices and powers of :func:`drazin_indices`, then
    :func:`drazin_from_powers`.  The tensor ops invert an invertible tensor
    without this kernel (``ginverses._Spectrum.inverse``), so among them
    it serves only tensors with a block of index 1 or more."""
    index, powers = drazin_indices(stack, cutoff, sigma)
    return drazin_from_powers(stack, cutoff, index, powers), index


def drazin_from_powers(stack: np.ndarray, cutoff: RankCutoff,
                       index: np.ndarray, powers: list) -> np.ndarray:
    """Drazin inverses of a stack of square matrices from their indices k
    and powers (``powers[j]`` = a^j up to j = max(k) + 1), as
    :func:`drazin_indices` returns them.

    A matrix of index 0 has every singular value above the cutoff, so it
    is invertible and a^D is its inverse: one stacked LU ``inv``, the
    kernel of ``t_inverse``.  For k >= 1, a^D = a^k @ pinv(a^(2k+1)) @ a^k:
    one stacked pseudoinverse per distinct index, with the cutoff of power
    2k+1.  An a^(2k+1) beyond the float64 range is the MathError of
    :func:`drazin_indices`.
    """
    out = np.empty(stack.shape, dtype=stack.dtype)
    for k in np.unique(index):
        group = index == k
        if k == 0:
            out[group] = np.linalg.inv(stack[group])
            continue
        ak = powers[k][group]
        with np.errstate(over="ignore", invalid="ignore"):
            odd = ak @ powers[k + 1][group]
        if not np.isfinite(odd).all():
            raise MathError(POWER_OVERFLOW)
        middle = pinv_from_svd(*svd_reduced(odd), cutoff.at(2 * k + 1))
        out[group] = ak @ middle @ ak
    return out


def _square_with_cutoff(a, name, cutoff):
    """a as a square matrix, its singular values and its cutoff."""
    a = np.asarray(a)
    _require_square(a, name)
    sigma = singular_values(a)
    return a, sigma, cutoff if cutoff is not None else _matrix_cutoff(a, sigma)


def matrix_index(a: np.ndarray, cutoff: RankCutoff | None = None) -> int:
    """Least k with rank(a^(k+1)) == rank(a^k); at most n."""
    a, sigma, cutoff = _square_with_cutoff(a, "matrix_index", cutoff)
    return int(drazin_indices(a[None], cutoff, sigma[None])[0][0])


def drazin_inverse(
    a: np.ndarray, cutoff: RankCutoff | None = None
) -> tuple[np.ndarray, int]:
    """Drazin inverse a^D and the index i(a); see :func:`drazin_stack`."""
    a, sigma, cutoff = _square_with_cutoff(a, "drazin_inverse", cutoff)
    ad, index = drazin_stack(a[None], cutoff, sigma[None])
    return ad[0], int(index[0])


def group_inverse(a: np.ndarray, cutoff: RankCutoff | None = None) -> np.ndarray:
    """Group inverse; exists iff rank(a^2) == rank(a), i.e. the Drazin
    index is at most 1, and is then the Drazin inverse.  The failure is
    :func:`no_group_inverse`, as in ``ginverses.t_group``, decided from the
    index before a^3 is formed."""
    a, sigma, cutoff = _square_with_cutoff(a, "group_inverse", cutoff)
    index, powers = drazin_indices(a[None], cutoff, sigma[None])
    if index[0] > 1:
        raise no_group_inverse(a, cutoff)
    return drazin_from_powers(a[None], cutoff, index, powers)[0]


def no_group_inverse(a: np.ndarray, cutoff: RankCutoff) -> GroupInverseNotExist:
    """The error for a square matrix of Drazin index above 1, with its
    ranks and how close their decision was."""
    sigma = singular_values(a)
    sigma_sq = singular_values(a @ a)
    rank = int(cutoff.rank(sigma))
    rank_sq = int(cutoff.rank(sigma_sq, 2))
    margin = _rank_margin(cutoff, sigma, sigma_sq)
    return GroupInverseNotExist(
        f"rank(A^2) = {rank_sq} < rank(A) = {rank}; group inverse does "
        f"not exist (rank-decision margin {margin:.3e})",
        rank=rank,
        rank_sq=rank_sq,
        margin=margin,
    )


def _rank_margin(cutoff: RankCutoff, sigma, sigma_sq) -> float:
    """Smallest relative gap between a singular value of a or a^2 and its
    rank cutoff; small margins mean the existence decision is fragile."""
    margin = np.inf
    for power, s in ((1, sigma), (2, sigma_sq)):
        threshold = cutoff.at(power)
        if s.size == 0 or not 0.0 < threshold < np.inf:
            continue
        margin = min(margin, float((np.abs(s - threshold) / threshold).min()))
    return margin


def _require_square(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} requires a square matrix, got {a.shape}")
