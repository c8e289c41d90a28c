"""Real tensor factorizations built by pairing block decompositions.

Each factorization follows the same pattern: transform to the Fourier
domain, decompose only the non-redundant blocks (real kernels on the
real-forced blocks, complex kernels elsewhere), mirror the factors onto
the conjugate partners, and inverse-transform with realness certification.
The resulting factors are always real; every operation returns a
ResidualReport of its defining identities.

Structural notions: a tensor is f-diagonal when every frontal slice is
diagonal; f-quasi-triangular when all slices are block upper triangular
with a common diagonal partition into 1x1/2x2 blocks; f-upper-block-
bi-diagonal when additionally only diagonal and first-superdiagonal blocks
may be nonzero.  The partition is not assumed from the construction: it is
re-detected on the assembled slices, and a PartitionViolation is raised
when no partition with blocks of size at most 2 fits (this can genuinely
happen for even slice counts, where two independently ordered real forms
must share a partition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Tensor3, transpose, tprod
from .errors import DimensionError, PartitionViolation
from .fourier import (
    FourierBlocks,
    assemble_real,
    half_batches,
    inverse_transform,
    join_batches,
    lift_multi,
    map_batches,
    real_tolerance,
    to_fourier,
)
from .report import ResidualReport


def rec_tolerance(a: Tensor3) -> float:
    """Reconstruction allowance: 1e-10 * (1 + max|entry|) * p."""
    m, n, p = a.dims
    return 1e-10 * (1.0 + a.max_abs) * p


def orth_tolerance(n: int, p: int) -> float:
    """Orthogonality allowance: 1e-10 * n * p."""
    return 1e-10 * n * p


def structure_tolerance(t: Tensor3) -> float:
    """Allowance for entries that must vanish structurally."""
    return rec_tolerance(t)


# ---------------------------------------------------------------------------
# structural predicates


def off_diagonal_max(t: Tensor3) -> float:
    m, n, p = t.dims
    mask = ~np.eye(m, n, dtype=bool)
    return float(np.abs(t.array[:, mask]).max()) if mask.any() else 0.0


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


def is_t_symmetric(t: Tensor3, tol: float) -> bool:
    m, n, p = t.dims
    if m != n:
        raise DimensionError("t-symmetry requires square slices")
    return float(np.abs((t - transpose(t)).array).max()) <= tol


def is_orthogonal(t: Tensor3, tol: float) -> bool:
    m, n, p = t.dims
    if m != n:
        raise DimensionError("orthogonality requires square slices")
    eye = Tensor3.identity(n, p)
    left = np.abs((tprod(transpose(t), t) - eye).array).max()
    right = np.abs((tprod(t, transpose(t)) - eye).array).max()
    return float(max(left, right)) <= tol


def _quasi_band_residual(stack: np.ndarray, partition: tuple[int, ...]) -> float:
    """Largest magnitude strictly below the block diagonal band."""
    residual = 0.0
    c = 0
    for size in partition[:-1]:
        c += size
        block = np.abs(stack[:, c:, :c])
        if block.size:
            residual = max(residual, float(block.max()))
    return residual


def _bidiagonal_band_residual(
    stack: np.ndarray, partition: tuple[int, ...]
) -> float:
    """Largest magnitude outside diagonal and first-superdiagonal blocks."""
    n = stack.shape[1]
    beta = np.empty(n, dtype=int)
    pos = 0
    for b, size in enumerate(partition):
        beta[pos:pos + size] = b
        pos += size
    diff = beta[None, :] - beta[:, None]
    mask = (diff < 0) | (diff > 1)
    return float(np.abs(stack[:, mask]).max()) if mask.any() else 0.0


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

    Works for any m x n x p input.  The blocks are decomposed by one
    batched SVD per half-spectrum batch.  Per-block singular values (which
    the Moore-Penrose route reuses) are exposed on the result.
    """
    m, n, p = a.dims
    batches = half_batches(to_fourier(a))
    parts = map_batches(batches, kernels.svd_stack)
    fb_u = join_batches(batches, [u for u, _, _ in parts], p)
    fb_s = join_batches(
        batches, [kernels.sigma_matrices(s, m, n) for _, s, _ in parts], p
    )
    fb_v = join_batches(batches, [v for _, _, v in parts], p)
    u, im_u = assemble_real(fb_u)
    s, im_s = assemble_real(fb_s)
    v, im_v = assemble_real(fb_v)

    sigma = np.diagonal(fb_s.blocks, axis1=1, axis2=2).real.copy()

    realness = max(im_u, im_s, im_v)
    max_abs = max(fb_u.max_abs, fb_s.max_abs, fb_v.max_abs)
    report = tsvd_report(a, u, s, v, realness=(realness, max_abs))
    return TSvdResult(u, s, v, report, sigma)


def tsvd_report(
    a: Tensor3,
    u: Tensor3,
    s: Tensor3,
    v: Tensor3,
    tol: float | None = None,
    realness: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residuals of the t-SVD identities for given factors."""
    m, n, p = a.dims
    report = ResidualReport("tsvd").start()
    t_rec = tol if tol is not None else rec_tolerance(a)
    t_orth = tol if tol is not None else orth_tolerance(max(m, n), p)

    recon = tprod(tprod(u, s), transpose(v))
    report.add("reconstruction", np.abs((recon - a).array).max(), t_rec)
    eye_m = Tensor3.identity(m, p)
    eye_n = Tensor3.identity(n, p)
    report.add(
        "orthogonality_u",
        np.abs((tprod(transpose(u), u) - eye_m).array).max(),
        t_orth,
    )
    report.add(
        "orthogonality_v",
        np.abs((tprod(transpose(v), v) - eye_n).array).max(),
        t_orth,
    )
    report.add("f_diagonal", off_diagonal_max(s), t_rec)
    _add_realness(report, p, tol, realness)
    return report.stop()


def _add_realness(report, p, tol, realness):
    if realness is None:
        return
    residue, max_abs = realness
    t_real = tol if tol is not None else real_tolerance(max_abs, p)
    report.add("realness", residue, t_real)


# ---------------------------------------------------------------------------
# t-Schur


@dataclass
class TSchurResult:
    u: Tensor3
    t: Tensor3
    realized_partition: tuple[int, ...]
    report: ResidualReport


def t_schur(a: Tensor3) -> TSchurResult:
    """Orthogonal similarity to an f-quasi-triangular tensor.

    The real-forced blocks get an ordered real Schur form (1x1 blocks
    first), the rest complex Schur forms, mirrored across conjugate pairs.
    The common partition is detected a posteriori from the assembled
    slices; if some slice would need a diagonal block larger than 2x2,
    PartitionViolation is raised.
    """
    m, n, p = a.dims
    if m != n:
        raise DimensionError("t_schur requires square slices")
    fb = to_fourier(a)

    def op(block, k):
        if k in fb.real_forced:
            dec = kernels.schur_real_ordered(block)
        else:
            dec = kernels.schur_complex(block)
        return dec.u, dec.t

    fb_u, fb_t = lift_multi(fb, op)
    u, im_u = assemble_real(fb_u)
    t, im_t = assemble_real(fb_t)

    partition = finest_partition(t.array, structure_tolerance(t))
    if partition is None:
        raise PartitionViolation(
            "assembled slices admit no common 1x1/2x2 diagonal partition "
            "(incompatible real-forced block orderings)"
        )
    realness = (max(im_u, im_t), max(fb_u.max_abs, fb_t.max_abs))
    report = tschur_report(a, u, t, partition, realness=realness)
    return TSchurResult(u, t, partition, report)


def tschur_report(
    a: Tensor3,
    u: Tensor3,
    t: Tensor3,
    partition: tuple[int, ...] | None = None,
    tol: float | None = None,
    realness: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residuals of the t-Schur identities for given factors."""
    m, n, p = a.dims
    if partition is None:
        partition = finest_partition(t.array, structure_tolerance(t))
        if partition is None:
            raise PartitionViolation(
                "factor admits no common 1x1/2x2 diagonal partition"
            )
    report = ResidualReport("tschur").start()
    t_rec = tol if tol is not None else rec_tolerance(a)
    t_orth = tol if tol is not None else orth_tolerance(n, p)
    t_struct = tol if tol is not None else structure_tolerance(t)

    recon = tprod(tprod(u, t), transpose(u))
    report.add("reconstruction", np.abs((recon - a).array).max(), t_rec)
    eye = Tensor3.identity(n, p)
    report.add(
        "orthogonality_u",
        np.abs((tprod(transpose(u), u) - eye).array).max(),
        t_orth,
    )
    report.add(
        "quasi_triangularity",
        _quasi_band_residual(t.array, partition),
        t_struct,
    )
    _add_realness(report, p, tol, realness)
    return report.stop()


# ---------------------------------------------------------------------------
# t-Jordan (diagonalizable regime)


@dataclass
class TJordanResult:
    p: Tensor3
    j: Tensor3
    realized_partition: tuple[int, ...]
    report: ResidualReport


def t_jordan(a: Tensor3) -> TJordanResult:
    """Similarity a = p * j * p^{-1} with j real and block-bi-diagonal.

    Supported in the diagonalizable regime of the Jordan kernels; blocks
    with clustered defective eigenvalues raise DefectiveBlock.  Pairing the
    Jordan data across conjugate blocks is what makes j real; assembling
    independently computed forms does not (see t_jordan_naive).
    """
    m, n, p = a.dims
    if m != n:
        raise DimensionError("t_jordan requires square slices")
    fb = to_fourier(a)

    def op(block, k):
        if k in fb.real_forced:
            dec = kernels.jordan_real(block)
        else:
            dec = kernels.jordan_complex(block)
        return dec.p, dec.j

    fb_p, fb_j = lift_multi(fb, op)
    pt, im_p = assemble_real(fb_p)
    j, im_j = assemble_real(fb_j)

    partition = finest_partition(j.array, structure_tolerance(j), bidiagonal=True)
    if partition is None:
        raise PartitionViolation(
            "assembled slices admit no common block-bi-diagonal partition "
            "with blocks of size at most 2"
        )
    realness = (max(im_p, im_j), max(fb_p.max_abs, fb_j.max_abs))
    report = tjordan_report(a, pt, j, partition, realness=realness)
    return TJordanResult(pt, j, partition, report)


def _condition_estimate(fb: FourierBlocks) -> float:
    """Largest per-block 2-norm condition number."""
    worst = 1.0
    for k in fb.evaluated:
        sigma = np.linalg.svd(fb.blocks[k], compute_uv=False)
        if sigma[-1] == 0.0:
            return np.inf
        worst = max(worst, float(sigma[0] / sigma[-1]))
    return worst


def tjordan_report(
    a: Tensor3,
    pt: Tensor3,
    j: Tensor3,
    partition: tuple[int, ...] | None = None,
    tol: float | None = None,
    realness: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residuals of the t-Jordan identities for given factors.

    The reconstruction allowance is scaled by the conditioning of the
    transforming tensor, since the similarity amplifies rounding by cond(P).
    """
    m, n, p = a.dims
    if partition is None:
        partition = finest_partition(
            j.array, structure_tolerance(j), bidiagonal=True
        )
        if partition is None:
            raise PartitionViolation(
                "factor admits no common block-bi-diagonal partition"
            )
    report = ResidualReport("tjordan").start()
    fb_p = to_fourier(pt)
    # cap the conditioning multiplier: beyond ~1e8 the transform is
    # numerically non-invertible and inflating the allowance further would
    # let garbage factors verify
    kappa = min(_condition_estimate(fb_p), 1e8)
    t_rec = tol if tol is not None else rec_tolerance(a) * kappa
    t_struct = tol if tol is not None else structure_tolerance(j)

    from .ginverses import t_inverse  # ginverses imports this module

    p_inv = t_inverse(pt)
    recon = tprod(tprod(pt, j), p_inv)
    report.add("reconstruction", np.abs((recon - a).array).max(), t_rec)
    eye = Tensor3.identity(n, p)
    report.add(
        "invertibility",
        np.abs((tprod(pt, p_inv) - eye).array).max(),
        t_rec,
    )
    report.add(
        "bidiagonal_structure",
        _bidiagonal_band_residual(j.array, partition),
        t_struct,
    )
    _add_realness(report, p, tol, realness)
    return report.stop()


# ---------------------------------------------------------------------------
# idempotent factorization


@dataclass
class IdempotentFactorization:
    u: Tensor3
    e: Tensor3
    v: Tensor3
    report: ResidualReport


def idempotent_factorization(
    a: Tensor3, rtol: float | None = None
) -> IdempotentFactorization:
    """a = u * e * v with u, v t-invertible and e real idempotent.

    Built from the per-block rank normal forms of one batched SVD per
    half-spectrum batch; the block ranks, taken at the tensor's rank
    cutoff, decide e.
    """
    m, n, p = a.dims
    if m != n:
        raise DimensionError("idempotent_factorization requires square slices")
    batches = half_batches(to_fourier(a))
    parts = map_batches(batches, kernels.svd_stack)
    cutoff = kernels.rank_cutoff([s for _, s, _ in parts], a.dims, rtol)
    factors = [kernels.rank_normal_factors(*part, cutoff) for part in parts]
    fb_u, fb_e, fb_v = (
        join_batches(batches, [f[i] for f in factors], p) for i in range(3)
    )
    u, im_u = assemble_real(fb_u)
    e, im_e = assemble_real(fb_e)
    v, im_v = assemble_real(fb_v)
    realness = (max(im_u, im_e, im_v),
                max(fb_u.max_abs, fb_e.max_abs, fb_v.max_abs))
    report = idem_report(a, u, e, v, realness=realness)
    return IdempotentFactorization(u, e, v, report)


def idem_report(
    a: Tensor3,
    u: Tensor3,
    e: Tensor3,
    v: Tensor3,
    tol: float | None = None,
    realness: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residuals of the idempotent factorization identities."""
    m, n, p = a.dims
    report = ResidualReport("idem").start()
    t_rec = tol if tol is not None else rec_tolerance(a)

    recon = tprod(tprod(u, e), v)
    report.add("reconstruction", np.abs((recon - a).array).max(), t_rec)
    report.add(
        "idempotency",
        np.abs((tprod(e, e) - e).array).max(),
        t_rec,
    )
    _add_realness(report, p, tol, realness)
    return report.stop()


# ---------------------------------------------------------------------------
# naive (unpaired) assemblies, for demonstrating the obstruction


def t_jordan_naive(a: Tensor3) -> np.ndarray:
    """Unpaired blockwise Jordan assembly; returns the complex slice stack.

    Every Fourier block is put in Jordan form independently and the inverse
    transform is applied without any conjugate mirroring.  On generic real
    input the result has nonvanishing imaginary parts, which is exactly why
    the paired construction exists.
    """
    m, n, p = a.dims
    if m != n:
        raise DimensionError("t_jordan_naive requires square slices")
    fb = to_fourier(a)
    forms = np.stack(
        [kernels.jordan_complex(fb.blocks[k]).j for k in range(p)]
    )
    return inverse_transform(FourierBlocks(forms))


def t_svd_naive_real_blocks(
    a: Tensor3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpaired blockwise SVD assembly; returns complex (u, s, v) stacks.

    Real SVDs are used on the real-forced blocks and complex SVDs on every
    other block independently (both partners computed, nothing mirrored).
    Nothing couples conjugate blocks, so realness of the assembled factors
    is down to luck.
    """
    m, n, p = a.dims
    fb = to_fourier(a)
    us, ss, vs = [], [], []
    for k in range(p):
        dec = kernels.svd(fb.block(k))
        us.append(dec.u.astype(complex))
        ss.append(dec.sigma_matrix().astype(complex))
        vs.append(dec.v.astype(complex))
    return tuple(
        inverse_transform(FourierBlocks(np.stack(stack)))
        for stack in (us, ss, vs)
    )
