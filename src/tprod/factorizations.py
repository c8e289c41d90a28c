"""Real tensor factorizations built by pairing block decompositions.

Each factorization follows the same pattern: transform to the half
spectrum, decompose its blocks 0..floor(p/2) (real kernels on the
real-forced blocks, complex kernels elsewhere) with
:meth:`~tprod.fourier.FourierBlocks.map`, and inverse-transform with
realness certification.  The conjugate partners are never computed: each
factor family is a :class:`~tprod.fourier.FourierBlocks`, which implies
them.  Every factorization, Schur included, runs stacked kernels in
``FourierBlocks.map`` calls.  The resulting factors
are always real; every operation returns a ResidualReport of its defining
identities, checked on the slices of the input and the factors at desk
scale (the t-Jordan report excepted) and on their half spectra above it
(see :mod:`tprod.report`).

A t-symmetric tensor (equal to its t-transpose) has Hermitian Fourier
blocks.  When the input is t-symmetric bit for bit, which
``is_t_symmetric(a, 0.0)`` decides on the slices, :func:`t_schur` and
:func:`t_jordan` take the Hermitian route: one batched eigensolve per
batch (:func:`kernels.hermitian_stack`), whose real eigenvalues give an
f-diagonal t and j and whose orthogonal u is also a perfectly conditioned
p.  Any other input, a near-symmetric one included, takes the general
Schur and Jordan kernels.

Structural notions: a tensor is f-diagonal when every frontal slice is
diagonal; f-quasi-triangular when all slices are block upper triangular
with a common diagonal partition into 1x1/2x2 blocks; f-upper-block-
bi-diagonal when additionally only diagonal and first-superdiagonal blocks
may be nonzero.  :func:`t_schur` and :func:`t_jordan` state the partition
they construct and their reports check the band against it: a real n x n
block has a number of real eigenvalues of the parity of n, so real-first
ordering puts the 2x2 blocks of every real-forced block at the same
positions counted from the end, and the complex blocks are triangular.
Under ``verify`` the reports get no partition and detect one on the
slices, raising PartitionViolation when none with blocks of size at most
2 fits.  Each factorization appends the imaginary residue its inverse
transforms dropped to its report as a last row, ``realness``; the report
functions take only the real factors, as ``verify`` passes them, and have
no such row.  The residue is exactly 0: real kernels run on the
real-forced blocks, so the dropped imaginary parts are zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Tensor3, _require_square, transpose, tprod
from .errors import DimensionError, PartitionViolation
from .fourier import (
    FourierBlocks,
    assemble_real,
    inverse_transform,
    operands,
    real_forced_slice,
    real_tolerance,
    to_fourier,
)
from .ginverses import _Spectrum, blockwise_inverse
from .report import ResidualReport, verifying


def rec_tolerance(a: Tensor3) -> float:
    """Reconstruction allowance: 1e-10 * (1 + max|entry|) * p."""
    m, n, p = a.dims
    return 1e-10 * (1.0 + a.max_abs) * p


def orth_tolerance(n: int, p: int) -> float:
    """Orthogonality allowance: 1e-10 * n * p."""
    return 1e-10 * n * p


# ---------------------------------------------------------------------------
# structural predicates


def off_diagonal_max(t: Tensor3) -> float:
    """max|entry| off the diagonals of t's slices; 0 for 1 x 1 slices."""
    m, n, p = t.dims
    x = np.abs(t.array).reshape(p, m * n)
    # a slice's diagonal is every (n + 1)-th of its first min(m, n) rows
    x[:, :min(m, n) * (n + 1):n + 1] = 0.0
    return float(x.max())


def is_f_diagonal(t: Tensor3, tol: float) -> bool:
    """Every frontal slice diagonal within tol."""
    return off_diagonal_max(t) <= tol


def finest_partition(
    stack: np.ndarray, tol: float, bidiagonal: bool = False
) -> tuple[int, ...] | None:
    """Finest common partition (blocks of size 1 or 2) fitting all slices.

    For the quasi-triangular test a cut is admissible when everything below
    and left of it vanishes in every slice.  For the bidiagonal test two
    consecutive cuts may additionally not both fall inside the span of a
    nonzero upper entry (that entry would then land beyond the first block
    superdiagonal).  Cuts are chosen by a small dynamic program maximizing
    the number of cuts; returns None when no partition fits.
    """
    n = stack.shape[1]
    if stack.shape[2] != n:
        raise DimensionError("partition detection requires square slices")
    absmax = np.abs(stack)

    def lower_ok(c: int) -> bool:
        return absmax[:, c:, :c].max() <= tol if 0 < c < n else True

    def pair_ok(k1: int, k2: int) -> bool:
        if not bidiagonal or k1 <= 0 or k2 >= n:
            return True
        block = absmax[:, :k1, k2:]
        return block.size == 0 or block.max() <= tol

    lower = [lower_ok(c) for c in range(n + 1)]
    best: list[tuple[int, int] | None] = [None] * (n + 1)
    best[0] = (0, -1)
    for c in range(1, n + 1):
        if c < n and not lower[c]:
            continue
        for prev in (c - 1, c - 2):
            if prev < 0 or best[prev] is None:
                continue
            if not pair_ok(prev, c):
                continue
            count = best[prev][0] + 1
            if best[c] is None or count > best[c][0]:
                best[c] = (count, prev)
    if best[n] is None:
        return None
    sizes = []
    c = n
    while c > 0:
        prev = best[c][1]
        sizes.append(c - prev)
        c = prev
    return tuple(reversed(sizes))


def is_f_quasi_triangular(
    t: Tensor3, tol: float
) -> tuple[bool, tuple[int, ...] | None]:
    """Block upper triangular with common 1x1/2x2 diagonal blocks."""
    partition = finest_partition(t.array, tol, bidiagonal=False)
    return partition is not None, partition


def is_f_upper_block_bidiagonal(
    t: Tensor3, tol: float
) -> tuple[bool, tuple[int, ...] | None]:
    """Only diagonal and first-superdiagonal blocks (sizes <= 2) nonzero."""
    partition = finest_partition(t.array, tol, bidiagonal=True)
    return partition is not None, partition


@verifying
def is_t_symmetric(t: Tensor3, tol: float) -> bool:
    """Whether max|t - t^T| <= tol: an exact slice-domain residual, taken
    on views of the slices with no transform, slice 0 first.  At tol 0 it
    is bit-for-bit symmetry; a difference beyond the float64 range is
    inf, so a finite tol refuses it."""
    _require_square(t, "t-symmetry")
    s = t.array
    if np.abs(s[0] - s[0].T).max() > tol:
        return False
    rest = s[1:] - s[:0:-1].transpose(0, 2, 1)
    return bool(np.abs(rest).max(initial=0.0) <= tol)


def _orthogonality(ft) -> float:
    """max|t^T * t - I| of the tensor t with verification operand ft
    (:func:`~tprod.fourier.operands`), with I of t's row count (a
    non-square t fails)."""
    m, n, p = ft.dims
    return (ft.T @ ft).distance(type(ft).identity(m, p))


@verifying
def is_orthogonal(t: Tensor3, tol: float) -> bool:
    _require_square(t, "orthogonality")
    (ft,) = operands(t)
    return max(_orthogonality(ft), _orthogonality(ft.T)) <= tol


def _band_residual(
    stack: np.ndarray, partition: tuple[int, ...], bidiagonal: bool
) -> float:
    """Largest magnitude below the block diagonal and, when bidiagonal,
    also above the first block superdiagonal."""
    n = stack.shape[-1]
    if not set(partition) <= {1, 2} or sum(partition) != n:
        raise PartitionViolation(f"partition {partition} is not made of "
                                 f"blocks of size 1 and 2 summing to {n}")
    block = np.repeat(np.arange(len(partition)), partition)
    diff = block[None, :] - block[:, None]  # column's block minus row's
    mask = diff < 0
    if bidiagonal:
        mask |= diff > 1
    return float(np.abs(stack[:, mask]).max(initial=0.0))


def _paired_forms(a: Tensor3, name: str, kernel):
    """Real factors (x, y) with a = x * y * x^{-1}, from ``kernel`` on the
    half spectrum (:func:`kernels.hermitian_stack` if a is exactly
    t-symmetric); y's partition, read off its real-forced blocks (see
    TSchurResult); and the realness pair."""
    _require_square(a, name)
    if is_t_symmetric(a, 0.0):
        kernel = kernels.hermitian_stack
    p = a.dims[2]
    x, y = to_fourier(a).map(kernel)
    forced = np.abs(y[real_forced_slice(p)].real).max(axis=0)
    partition = kernels._scan_quasi_partition(forced)
    (x, y), realness = _assemble(p, x, y)
    return x, y, partition, realness


def _partition(t: Tensor3, bidiagonal: bool) -> tuple[int, ...]:
    """The finest common partition of t's slices at t's reconstruction
    allowance; PartitionViolation when none has blocks of size at most 2."""
    partition = finest_partition(t.array, rec_tolerance(t), bidiagonal)
    if partition is None:
        kind = "block-bi-diagonal" if bidiagonal else "quasi-triangular"
        raise PartitionViolation(f"slices admit no common {kind} partition "
                                 "into blocks of size at most 2")
    return partition


# ---------------------------------------------------------------------------
# t-SVD


@dataclass
class TSvdResult:
    u: Tensor3
    s: Tensor3
    v: Tensor3
    report: ResidualReport
    fourier_singular_values: np.ndarray  # (p, min(m, n)), per-block, sorted

    def reconstruct(self) -> Tensor3:
        return tprod(tprod(self.u, self.s), transpose(self.v))


def t_svd(a: Tensor3) -> TSvdResult:
    """Real tensor SVD: orthogonal u, v and f-diagonal s with a = u*s*v^T.

    Works for any m x n x p input.  The blocks are decomposed by stacked
    SVDs of the half spectrum.  Per-block singular values are exposed
    on the result.
    """
    m, n, p = a.dims
    u, sigma, v = to_fourier(a).map(kernels.svd_stack)
    s = kernels.sigma_matrices(sigma, m, n)
    (u, s, v), realness = _assemble(p, u, s, v)
    # the partners of blocks 1..ceil(p/2)-1 share their singular values
    k = np.arange(p)
    sigma = sigma[np.minimum(k, p - k)]
    report = tsvd_report(a, u, s, v)
    report.add("realness", *realness)
    return TSvdResult(u, s, v, report, sigma)


def tsvd_report(a: Tensor3, u: Tensor3, s: Tensor3, v: Tensor3) -> ResidualReport:
    """Residuals of the t-SVD identities for given factors."""
    m, n, p = a.dims
    with ResidualReport("tsvd") as report:
        t_rec = rec_tolerance(a)
        t_orth = orth_tolerance(max(m, n), p)
        fa, fu, fs, fv = operands(a, u, s, v)
        report.add_identity("reconstruction", fu @ fs @ fv.T, fa, t_rec)
        report.add("orthogonality_u", _orthogonality(fu), t_orth)
        report.add("orthogonality_v", _orthogonality(fv), t_orth)
        report.add("f_diagonal", off_diagonal_max(s), t_rec)
    return report


def _assemble(p: int, *families: np.ndarray) -> tuple[list[Tensor3], tuple]:
    """The real tensors of factor families over blocks 0..floor(p/2), and
    the realness pair their op adds to its report, last: the largest
    certified residue and its allowance at the largest block entry."""
    fbs = [FourierBlocks(f, p) for f in families]
    assembled = [assemble_real(fb) for fb in fbs]
    residue = max(im for _, im in assembled)
    allowance = real_tolerance(max(fb.max_abs for fb in fbs), p)
    return [t for t, _ in assembled], (residue, allowance)


# ---------------------------------------------------------------------------
# t-Schur


@dataclass
class TSchurResult:
    """``realized_partition`` is (1,)*r + (2,)*((n - r)/2), r the least
    real-eigenvalue count over the real-forced blocks; it may be coarser
    than the finest partition detection would find."""

    u: Tensor3
    t: Tensor3
    realized_partition: tuple[int, ...]
    report: ResidualReport


def t_schur(a: Tensor3) -> TSchurResult:
    """Orthogonal similarity to an f-quasi-triangular tensor.

    The real-forced blocks get an ordered real Schur form (1x1 blocks
    first), blocks 1..ceil(p/2)-1 complex Schur forms, which their
    conjugate partners share.  An exactly t-symmetric a takes
    :func:`kernels.hermitian_stack` instead: u is then orthogonal with
    eigenvectors in its columns, and t is f-diagonal with the real
    eigenvalues of each block, nondecreasing.
    The report checks t against the partition the construction gives.
    """
    u, t, partition, realness = _paired_forms(a, "t_schur", kernels.schur_stack)
    report = tschur_report(a, u, t, partition)
    report.add("realness", *realness)
    return TSchurResult(u, t, partition, report)


def tschur_report(
    a: Tensor3, u: Tensor3, t: Tensor3, partition: tuple[int, ...] | None = None
) -> ResidualReport:
    """Residuals of the t-Schur identities for given factors."""
    m, n, p = a.dims
    if partition is None:
        partition = _partition(t, bidiagonal=False)
    with ResidualReport("tschur") as report:
        fa, fu, ft = operands(a, u, t)
        report.add_identity("reconstruction", fu @ ft @ fu.T, fa,
                            rec_tolerance(a))
        report.add("orthogonality_u", _orthogonality(fu), orth_tolerance(n, p))
        report.add(
            "quasi_triangularity",
            _band_residual(t.array, partition, bidiagonal=False),
            rec_tolerance(t),
        )
    return report


# ---------------------------------------------------------------------------
# t-Jordan (diagonalizable regime)


@dataclass
class TJordanResult:
    """``realized_partition`` is that of :class:`TSchurResult`, for j."""

    p: Tensor3
    j: Tensor3
    realized_partition: tuple[int, ...]
    report: ResidualReport


def t_jordan(a: Tensor3) -> TJordanResult:
    """Similarity a = p * j * p^{-1} with j real and block-bi-diagonal.

    Supported in the diagonalizable regime of :func:`kernels.jordan_stack`:
    a block whose eigenvector basis is numerically rank deficient raises
    DefectiveBlock.  An exactly t-symmetric a takes
    :func:`kernels.hermitian_stack` instead, which never refuses: p is
    orthogonal and j f-diagonal, real and nondecreasing in each block, even
    where eigenvalues repeat.  Pairing the Jordan data across conjugate
    blocks is what makes j real; assembling independently computed forms
    does not (see t_jordan_naive).
    """
    pt, j, partition, realness = _paired_forms(a, "t_jordan", kernels.jordan_stack)
    report = tjordan_report(a, pt, j, partition)
    report.add("realness", *realness)
    return TJordanResult(pt, j, partition, report)


def tjordan_report(
    a: Tensor3, pt: Tensor3, j: Tensor3, partition: tuple[int, ...] | None = None
) -> ResidualReport:
    """Residuals of the t-Jordan identities for given factors.

    The reconstruction allowance is scaled by the conditioning of the
    transforming tensor, since the similarity amplifies rounding by cond(P),
    up to 1 / kernels.DEFECT_RANK_TOL.  One SVD of P's blocks gives both
    cond(P) and the decision that P is invertible, as t_inverse takes it.
    It verifies on the half spectrum at every size, never on the slices
    (:func:`~tprod.fourier.operands`), because P's inverse comes from
    those block SVDs (:func:`~tprod.ginverses.blockwise_inverse`).
    """
    m, n, p = a.dims
    if partition is None:
        partition = _partition(j, bidiagonal=True)
    with ResidualReport("tjordan") as report:
        fa, fp = to_fourier(a), to_fourier(pt)
        p_inv, sigma = blockwise_inverse(fp)
        # cap the conditioning multiplier where t_jordan refuses an
        # eigenvector basis: beyond it the transform is numerically
        # singular, and inflating the allowance further would let garbage
        # factors verify
        kappa = max(1.0, float((sigma[:, 0] / sigma[:, -1]).max()))
        t_rec = rec_tolerance(a) * min(kappa, 1 / kernels.DEFECT_RANK_TOL)
        fj = to_fourier(j)
        report.add_identity("reconstruction", fp @ fj @ p_inv, fa, t_rec)
        report.add_identity(
            "invertibility", fp @ p_inv, FourierBlocks.identity(n, p), t_rec
        )
        report.add(
            "bidiagonal_structure",
            _band_residual(j.array, partition, bidiagonal=True),
            rec_tolerance(j),
        )
    return report


# ---------------------------------------------------------------------------
# idempotent factorization


@dataclass
class IdempotentFactorization:
    u: Tensor3
    e: Tensor3
    v: Tensor3
    report: ResidualReport


def idempotent_factorization(a: Tensor3) -> IdempotentFactorization:
    """a = u * e * v with u, v t-invertible and e real idempotent.

    Built from the per-block rank normal forms of the stacked SVDs of the
    half spectrum; the block ranks, taken at the tensor's rank cutoff,
    decide e.
    """
    _require_square(a, "idempotent_factorization")
    spec = _Spectrum(to_fourier(a), kernels.svd_stack)
    factors = kernels.rank_normal_factors(*spec.families, spec.cutoff)
    (u, e, v), realness = _assemble(spec.fb.p, *factors)
    report = idem_report(a, u, e, v)
    report.add("realness", *realness)
    return IdempotentFactorization(u, e, v, report)


def idem_report(a: Tensor3, u: Tensor3, e: Tensor3, v: Tensor3) -> ResidualReport:
    """Residuals of the idempotent factorization identities."""
    with ResidualReport("idem") as report:
        t_rec = rec_tolerance(a)
        fa, fu, fe, fv = operands(a, u, e, v)
        report.add_identity("reconstruction", fu @ fe @ fv, fa, t_rec)
        report.add_identity("idempotency", fe @ fe, fe, t_rec)
    return report


# ---------------------------------------------------------------------------
# naive (unpaired) assemblies, for demonstrating the obstruction


def t_jordan_naive(a: Tensor3) -> np.ndarray:
    """Unpaired blockwise Jordan assembly; returns the complex slice stack.

    Every Fourier block is put in Jordan form independently, by one
    :func:`kernels.jordan_stack` call on the full p-block stack, and the
    inverse transform is applied without any conjugate mirroring.  On
    generic real input the result has nonvanishing imaginary parts, which
    is exactly why the paired construction exists.
    """
    _require_square(a, "t_jordan_naive")
    _, j = kernels.jordan_stack(to_fourier(a).full())
    return inverse_transform(j)


def t_svd_naive_real_blocks(
    a: Tensor3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpaired blockwise SVD assembly; returns complex (u, s, v) stacks.

    Blocks 0..floor(p/2) get the SVDs :func:`t_svd` maps (real ones on the
    real-forced blocks), and their partners floor(p/2)+1..p-1 complex SVDs
    of their own, in one more :func:`kernels.svd_stack` call (both partners
    computed, nothing mirrored).  Nothing couples conjugate blocks, so
    realness of the assembled factors is down to luck.
    """
    m, n, p = a.dims
    fb = to_fourier(a)
    half = fb.map(kernels.svd_stack)
    rest = kernels.svd_stack(fb.full()[p // 2 + 1:])
    u, sigma, v = (np.concatenate(pair) for pair in zip(half, rest))
    return tuple(inverse_transform(f)
                 for f in (u, kernels.sigma_matrices(sigma, m, n), v))
