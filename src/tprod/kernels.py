"""Per-block matrix decompositions and matrix generalized inverses.

These are thin, contract-checked wrappers over LAPACK (via numpy/scipy)
plus the pieces LAPACK does not provide: deterministic phase conventions,
real-first Schur ordering, a diagonalizable-regime Jordan form, the rank
normal form, and Drazin/group inverses.  The SVD, pseudoinverse, Drazin,
Schur and Jordan kernels take stacks of matrices, which the tensor ops
run on the half spectrum through ``FourierBlocks.map``.
:func:`hermitian_stack` is the Schur and the Jordan kernel of Hermitian
stacks.  A matrix is the tensor with p = 1, so it has no kernels of its
own: the ten per-matrix names the benchmark's tracer still wraps are
stubs that name their replacement, made by :func:`_retired` as
``fourier.lift_multi``'s is.  Every rank decision goes through one
:class:`RankCutoff`, and the Jordan form refuses any matrix whose
eigenvector basis is numerically rank deficient (DEFECT_RANK_TOL).
LAPACK's drivers assume finite input: every kernel refuses a stack holding
NaN or inf with the one ValueError of :func:`_require_finite`.
Everything here is deterministic for fixed input, so every tensor op
gives bit-identical results run to run.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import (
    ConvergenceError,
    DefectiveBlock,
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
    rows = mag.argmax(axis=1)
    at = (np.arange(x.shape[0])[:, None], rows, np.arange(x.shape[2]))
    pivot, size = x[at], mag[at]
    return np.divide(pivot, size, out=np.ones_like(pivot), where=size != 0)


def _fix_phases(u: np.ndarray, v: np.ndarray):
    """Deterministic phase convention for stacks of singular-vector pairs.

    The largest-magnitude entry of each left singular vector is made real
    positive; the matching right singular vector absorbs the same factor so
    the product is unchanged.  Surplus columns (null-space completions) are
    normalized independently.  v, which the caller passes fresh and
    C-ordered, is scaled in place; u comes back as a new array, because
    numpy's in-place complex multiply rounds a one-element stack
    differently.
    """
    paired = min(u.shape[-1], v.shape[-1])
    phase = np.conj(_pivot_phases(u))
    u = u * phase[..., None, :]
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
    u, v = _fix_phases(u, np.conj(vh.swapaxes(-1, -2), order="C"))
    zero = ~stack.any(axis=(-2, -1))
    if zero.any():
        u[zero] = np.eye(m)
        v[zero] = np.eye(n)
    return u, s, v


@functools.cache
def _flapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded once
    per process from its file without importing the ``scipy.linalg``
    package, whose import costs about 200 ms against 5-10 ms for this
    module.  It is registered under its own name, so a later ``import
    scipy.linalg`` takes this module and its ``get_lapack_funcs``
    returns the same ``dgees`` and ``zgees``; a module that
    ``scipy.linalg`` already loaded is taken as it is."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
    spec = FileFinder(linalg, loaders).find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def schur_stack(stack: np.ndarray):
    """Schur forms (u, t), a = u @ t @ u^H, of a (b, n, n) float64 or
    complex128 stack.

    A complex stack gets complex Schur forms: unitary u, upper triangular
    t.  A real stack gets real Schur forms with all 1x1 diagonal blocks
    before the 2x2 blocks, reordered by orthogonal block swaps inside
    LAPACK; an ill-conditioned exchange raises SwapFailure.  The driver is
    LAPACK's ``dgees`` or ``zgees`` from :func:`_flapack`, the functions
    ``scipy.linalg.lapack.get_lapack_funcs`` returns for such a stack.
    One workspace query and one finiteness check serve the whole stack,
    and the driver runs once per matrix.
    """
    stack = np.asarray(stack)
    _require_finite(stack)
    u, t = np.empty_like(stack), np.empty_like(stack)
    if stack.size == 0:
        return u, t
    real = not np.iscomplexobj(stack)
    gees = _flapack().dgees if real else _flapack().zgees
    lwork = int(gees(lambda *x: None, stack[0], lwork=-1)[-2][0].real)
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


def _retired(name: str, replacement: str, module: str = "kernels"):
    """A stub for the retired name ``module.name``: it raises
    NotImplementedError naming ``replacement``.  It stays bound only while
    the benchmark's tracer wraps the name."""

    def retired(*args, **kwargs):
        raise NotImplementedError(
            f"{module}.{name} is retired; use {replacement}")

    retired.__name__ = retired.__qualname__ = name
    return retired


svd = _retired("svd", "t_svd(Tensor3(a[None])) or svd_stack(a[None])")
schur_complex = _retired("schur_complex", "schur_stack(a[None])")
schur_real_ordered = _retired(
    "schur_real_ordered", "t_schur(Tensor3(a[None])) or schur_stack(a[None])")
jordan_complex = _retired("jordan_complex", "jordan_stack(a[None])")
jordan_real = _retired(
    "jordan_real", "t_jordan(Tensor3(a[None])) or jordan_stack(a[None])")
rank_normal_form = _retired(
    "rank_normal_form",
    "idempotent_factorization(Tensor3(a[None])) or rank_normal_factors")
mp_inverse = _retired(
    "mp_inverse", "t_pinv(Tensor3(a[None])) or pinv_from_svd")
matrix_index = _retired(
    "matrix_index", "t_index(Tensor3(a[None])) or drazin_indices")
drazin_inverse = _retired(
    "drazin_inverse", "t_drazin(Tensor3(a[None])) or drazin_stack")
group_inverse = _retired(
    "group_inverse", "t_group(Tensor3(a[None])) or drazin_from_powers")
