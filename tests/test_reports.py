"""The nine reports against a slice-domain oracle that uses no FFT.

The reports verify on the half spectrum: they transform their operands
once and take each identity's residual blocks to the slices by one
certified irfft.  The oracle below recomputes every check from the
definitions instead: t-products are bcirc products, the transpose reverses
slices 2..p, inverses come from inverting bcirc, and only tjordan_report's
cond(P) reads Fourier blocks, from an explicit DFT sum.

Both measure the same exact residual in floating point, so they may differ
by the rounding of either.  That allowance is bounded by the standard
product bound gamma_K |A||B| (K the inner dimension, n*p per bcirc
product), taken over the identity's operands in absolute value, plus the
transforms; a residual that lies within it of its tolerance may take either
verdict.  Otherwise the check names, order, tolerances and verdicts must
agree, and the residuals to 1e-3 of the tolerance or that allowance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tprod import (
    MathError,
    Tensor3,
    gen,
    idempotent_factorization,
    scalar_mul,
    t_drazin,
    t_group,
    t_inverse,
    t_jordan,
    t_pinv,
    t_schur,
    t_svd,
    unit_regular_witness,
)
from tprod import factorizations as fz
from tprod import ginverses as gi

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# the oracle: slice stacks of shape (p, m, n), no transform


def bcirc(x):
    p = len(x)
    return np.block([[x[(r - c) % p] for c in range(p)] for r in range(p)])


def tt(x):
    return np.concatenate((x[:1], x[:0:-1])).transpose(0, 2, 1)


def eye(n, p):
    out = np.zeros((p, n, n))
    out[0] = np.eye(n)
    return out


def tinv(x):
    p, n, _ = x.shape
    return np.linalg.inv(bcirc(x))[:, :n].reshape(p, n, n)


class Side:
    """One side of an identity: its value, the same product taken over
    absolute values, and the summed inner dimension of its products."""

    def __init__(self, *factors):
        value, mag, inner = factors[0], np.abs(factors[0]), 0
        for f in factors[1:]:
            p, m, n = value.shape
            value = (bcirc(value) @ f.reshape(p * n, -1)).reshape(p, m, -1)
            mag = (bcirc(mag) @ np.abs(f).reshape(p * n, -1)).reshape(p, m, -1)
            inner += n * p
        self.value, self.mag, self.inner = value, mag, inner

    @property
    def T(self):
        side = Side(tt(self.value))
        side.mag, side.inner = tt(self.mag), self.inner
        return side


def identity_check(name, lhs, rhs, tol):
    p = len(lhs.value)
    residual = float(np.abs(lhs.value - rhs.value).max())
    scale = max(float(lhs.mag.max()), float(rhs.mag.max()))
    noise = (lhs.inner + rhs.inner + 4 * p) * EPS * scale
    return name, residual, tol, noise


def gi_tol(a):
    return 1e-9 * (1.0 + np.abs(a).max()) ** 2 * len(a)


def rec_tol(a):
    return 1e-10 * (1.0 + np.abs(a).max()) * len(a)


def band(t, partition, bidiagonal):
    block = np.repeat(np.arange(len(partition)), partition)
    diff = block[None, :] - block[:, None]
    mask = (diff < 0) | (bidiagonal & (diff > 1))
    return float(np.abs(t[:, mask]).max(initial=0.0))


def off_diagonal(s):
    mask = ~np.eye(*s.shape[1:], dtype=bool)
    return float(np.abs(s[:, mask]).max()) if mask.any() else 0.0


def penrose_oracle(a, x):
    t = gi_tol(a)
    ax, xa = Side(a, x), Side(x, a)
    return [
        identity_check("axa_equals_a", Side(a, x, a), Side(a), t),
        identity_check("xax_equals_x", Side(x, a, x), Side(x), t),
        identity_check("ax_t_symmetric", ax, ax.T, t),
        identity_check("xa_t_symmetric", xa, xa.T, t),
    ]


def drazin_oracle(a, ad, index):
    t = gi_tol(a)
    n, p = a.shape[1], len(a)
    power = [a] * index or [eye(n, p)]
    return [
        identity_check("power_identity", Side(*power, a, ad), Side(*power), t),
        identity_check("outer_identity", Side(ad, a, ad), Side(ad), t),
        identity_check("commutation", Side(a, ad), Side(ad, a), t),
    ]


def inverse_oracle(a, x):
    t, e = gi_tol(a), Side(eye(a.shape[1], len(a)))
    return [
        identity_check("left_inverse", Side(x, a), e, t),
        identity_check("right_inverse", Side(a, x), e, t),
    ]


def group_oracle(a, g):
    t = gi_tol(a)
    return [
        identity_check("inner_identity", Side(a, g, a), Side(a), t),
        identity_check("outer_identity", Side(g, a, g), Side(g), t),
        identity_check("commutation", Side(a, g), Side(g, a), t),
    ]


def witness_oracle(a, w):
    t = gi_tol(a)
    return [
        identity_check("von_neumann", Side(a, w, a), Side(a), t),
        identity_check("witness_invertibility", Side(w, tinv(w)),
                       Side(eye(a.shape[1], len(a))), t),
    ]


def tsvd_oracle(a, u, s, v):
    p, (m, n) = len(a), a.shape[1:]
    t_rec, t_orth = rec_tol(a), 1e-10 * max(m, n) * p
    return [
        identity_check("reconstruction", Side(u, s, tt(v)), Side(a), t_rec),
        identity_check("orthogonality_u", Side(tt(u), u), Side(eye(m, p)), t_orth),
        identity_check("orthogonality_v", Side(tt(v), v), Side(eye(n, p)), t_orth),
        ("f_diagonal", off_diagonal(s), t_rec, 0.0),
    ]


def tschur_oracle(a, u, t, partition):
    p, n = len(a), a.shape[1]
    return [
        identity_check("reconstruction", Side(u, t, tt(u)), Side(a), rec_tol(a)),
        identity_check("orthogonality_u", Side(tt(u), u), Side(eye(n, p)),
                       1e-10 * n * p),
        ("quasi_triangularity", band(t, partition, False), rec_tol(t), 0.0),
    ]


def tjordan_oracle(a, pt, j, partition):
    p, n = len(a), a.shape[1]
    # cond(P): the Fourier blocks of P by an explicit DFT sum
    k = np.arange(p)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / p)
    sigma = np.linalg.svd(np.einsum("ks,smn->kmn", dft, pt), compute_uv=False)
    kappa = max(1.0, float((sigma[:, 0] / sigma[:, -1]).max()))
    t = rec_tol(a) * min(kappa, 1e6)
    p_inv = tinv(pt)
    return [
        identity_check("reconstruction", Side(pt, j, p_inv), Side(a), t),
        identity_check("invertibility", Side(pt, p_inv), Side(eye(n, p)), t),
        ("bidiagonal_structure", band(j, partition, True), rec_tol(j), 0.0),
    ]


def idem_oracle(a, u, e, v):
    t = rec_tol(a)
    return [
        identity_check("reconstruction", Side(u, e, v), Side(a), t),
        identity_check("idempotency", Side(e, e), Side(e), t),
    ]


# ---------------------------------------------------------------------------
# each report: its factors from the op, the report itself and its oracle


def _drazin_factors(a):
    res = t_drazin(a)
    return res.ad, res.index


REPORTS = {
    "penrose": (lambda a: (t_pinv(a),), gi.penrose_report, penrose_oracle),
    "drazin": (_drazin_factors, gi.drazin_report, drazin_oracle),
    "inverse": (lambda a: (t_inverse(a),), gi.inverse_report, inverse_oracle),
    "group": (lambda a: (t_group(a),), gi.group_report, group_oracle),
    "witness": (lambda a: (unit_regular_witness(a).w,), gi.witness_report,
                witness_oracle),
    "tsvd": (lambda a: (lambda r: (r.u, r.s, r.v))(t_svd(a)), fz.tsvd_report,
             tsvd_oracle),
    "tschur": (lambda a: (lambda r: (r.u, r.t, r.realized_partition))(t_schur(a)),
               fz.tschur_report, tschur_oracle),
    "tjordan": (lambda a: (lambda r: (r.p, r.j, r.realized_partition))(t_jordan(a)),
                fz.tjordan_report, tjordan_oracle),
    "idem": (lambda a: (lambda r: (r.u, r.e, r.v))(idempotent_factorization(a)),
             fz.idem_report, idem_oracle),
}
RECTANGULAR = ("penrose", "tsvd")


def _arrays(factors):
    return [f.array if isinstance(f, Tensor3) else f for f in factors]


def assert_matches_oracle(report, oracle):
    got = [(c.name, c.residual, c.tolerance, c.passed) for c in report.checks]
    assert [c[0] for c in got] == [c[0] for c in oracle]
    for (name, residual, tol, passed), (_, want, want_tol, noise) in zip(got, oracle):
        assert tol == pytest.approx(want_tol, rel=1e-9, abs=0.0), name
        assert abs(residual - want) <= max(1e-3 * tol, noise), name
        if abs(want - tol) > noise:
            assert passed == (want <= tol), name


def _case(name, m, n, p, kind, seed):
    if m != n and name not in RECTANGULAR or kind == "t_symmetric" and m != n:
        n = m
    a = gen(seed, m, n, p, kind)
    make, report_fn, oracle_fn = REPORTS[name]
    try:
        factors = make(a)
    except MathError:  # no such factors for this input, e.g. a singular a
        return None
    return a, factors, report_fn, oracle_fn


@pytest.mark.parametrize("name", REPORTS)
@settings(max_examples=20)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    p=st.sampled_from((1, 2, 3, 4, 5, 6)),
    kind=st.sampled_from(("dense", "rank_deficient", "t_symmetric")),
    seed=st.integers(0, 2**16),
)
@example(m=3, n=3, p=1, kind="dense", seed=1)
@example(m=3, n=3, p=2, kind="rank_deficient", seed=2)
@example(m=2, n=4, p=5, kind="dense", seed=3)
@example(m=4, n=3, p=4, kind="rank_deficient", seed=4)
@example(m=3, n=3, p=6, kind="t_symmetric", seed=5)
def test_report_matches_slice_domain_oracle(name, m, n, p, kind, seed):
    case = _case(name, m, n, p, kind, seed)
    if case is None:
        return
    a, factors, report_fn, oracle_fn = case
    assert_matches_oracle(report_fn(a, *factors),
                          oracle_fn(a.array, *_arrays(factors)))

    # one entry of the first factor off by 1e-6 fails the same identities
    bad = factors[0].array.copy()
    bad[0, 0, 0] += 1e-6
    bad_factors = (Tensor3(bad),) + tuple(factors[1:])
    try:
        report = report_fn(a, *bad_factors)
    except MathError:  # e.g. a transform made singular
        return
    assert_matches_oracle(report, oracle_fn(a.array, *_arrays(bad_factors)))


# ---------------------------------------------------------------------------
# overflow inside a report


@pytest.mark.parametrize("report", [
    # x * a * x leaves the float64 range, while a * x * a stays inside it
    lambda a: gi.penrose_report(a, scalar_mul(1e200, a)),
    # the stacked power a^4 overflows before the identity is formed
    lambda a: gi.drazin_report(scalar_mul(1e100, a), a, 4),
    # u * s * v^T overflows
    lambda a: fz.tsvd_report(a, scalar_mul(1e160, a), scalar_mul(1e160, a), a),
])
def test_overflowing_identity_is_a_math_error(report):
    # pytest turns numpy's RuntimeWarning into an error, so this also checks
    # that the overflow warning is kept quiet
    a = gen(3, 3, 3, 4)
    with pytest.raises(MathError,
                       match="^an identity residual overflowed the float64 "
                             "range$"):
        report(a)
