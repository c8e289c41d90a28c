"""The nine reports against a slice-domain oracle that uses no FFT.

Most reports verify where tprod's direct-path rule puts them: on the
slices, by block-circulant products, when p * max(m, n) is within
DIRECT_PATH_LIMIT, and above it on the half spectrum, where they transform
their operands once and take each identity's residual blocks to the
slices by one certified irfft.  The oracle below recomputes every check
from the definitions instead: t-products are bcirc products, the transpose
reverses slices 2..p, inverses come from inverting bcirc, and only
tjordan_report's cond(P) reads Fourier blocks, from an explicit DFT sum.

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
from tprod import cli
from tprod import factorizations as fz
from tprod import ginverses as gi
from tprod.core import DIRECT_PATH_LIMIT
from tprod.fourier import FourierBlocks, SliceStack, operands

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


def _overflowing(name, p):
    """Arguments of report ``name``, 3x3xp, with which one of its
    identities leaves the float64 range while every operand stays inside
    it."""
    a = gen(3, 3, 3, p)
    big = lambda c: scalar_mul(c, a)  # noqa: E731
    return {
        # x * a * x overflows, while a * x * a stays inside the range
        "penrose": (a, big(1e200)),
        # the stacked power a^4 overflows before the identity is formed
        "drazin": (big(1e100), a, 4),
        "inverse": (big(1e150), big(1e200)),
        "group": (big(1e150), big(1e200)),
        "witness": (big(1e150), big(1e200)),
        # u * s * v^T overflows
        "tsvd": (a, big(1e160), big(1e160), a),
        "tschur": (a, big(1e160), big(1e160), (1, 1, 1)),
        "tjordan": (a, big(1e160), big(1e160), (1, 1, 1)),
        "idem": (a, big(1e160), big(1e160), a),
    }[name]


# 3x3x4 verifies on the slices, 3x3x32 on the half spectrum, except the
# t-Jordan, witness, Drazin and group reports, which take the half
# spectrum at both
@pytest.mark.parametrize("p", [4, 32])
@pytest.mark.parametrize("name", REPORTS)
def test_overflowing_identity_is_a_math_error(name, p):
    # under an outer error state that raises, a FloatingPointError would
    # show a report that does not set its own; pytest also turns numpy's
    # RuntimeWarning into an error, so the warning must stay quiet too
    report_fn = REPORTS[name][1]
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(MathError,
                           match="^an identity residual overflowed the "
                                 "float64 range$"):
            report_fn(*_overflowing(name, p))


# ---------------------------------------------------------------------------
# the domain a report verifies in


# p * max(m, n) = 64, the limit, verifies on the slices, and 65 on the half
# spectrum; the t-Jordan, witness, Drazin and group reports take the half
# spectrum on both sides
HALF_SPECTRUM_ONLY = ("tjordan", "witness", "drazin", "group")
SQUARE_SIDES = [(4, 4, 16, SliceStack), (5, 5, 13, FourierBlocks)]
RECTANGULAR_SIDES = [(4, 2, 16, SliceStack), (2, 5, 13, FourierBlocks)]


@pytest.mark.parametrize("name, m, n, p, domain", [
    (name, *side) for name in REPORTS
    for side in SQUARE_SIDES + RECTANGULAR_SIDES * (name in RECTANGULAR)
])
def test_direct_path_limit_decides_the_domain(name, m, n, p, domain,
                                              monkeypatch):
    assert (p * max(m, n) <= DIRECT_PATH_LIMIT) == (domain is SliceStack)
    a, factors, report_fn, _ = _case(name, m, n, p, "dense", 7)
    tensors = [f for f in factors if isinstance(f, Tensor3)]
    assert {type(x) for x in operands(a, *tensors)} == {domain}
    # a report on the slices transforms nothing
    rffts = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *args, **kw: rffts.append(1) or rfft(*args, **kw))
    assert report_fn(a, *factors).passed
    assert (not rffts) == (domain is SliceStack
                           and name not in HALF_SPECTRUM_ONLY)


# ---------------------------------------------------------------------------
# an op's own report against the one verify calls on the op's factors


OWN_REPORT = ("tsvd", "tschur", "tjordan", "idem", "drazin", "witness")
REALNESS = ("tsvd", "tschur", "tjordan", "idem")


def test_the_ops_with_a_report_of_their_own():
    assert {k for k, op in cli.OPS.items() if op.attrs} == set(OWN_REPORT)


@pytest.mark.parametrize("kind", ["dense", "t_symmetric", "rank_deficient"])
@pytest.mark.parametrize("name", OWN_REPORT)
def test_op_and_verify_check_in_the_same_order(name, kind):
    # the one difference is the realness row a factorization appends, last
    op = cli.OPS[name]
    a = gen(11, 3, 3, 4, kind)
    res = op.compute(a, None)
    factors = [getattr(res, attr) for attr in op.attrs]
    own = [c.name for c in res.report.checks]
    verified = [c.name for c in op.report(a, *factors).checks]
    assert own == verified + ["realness"] * (name in REALNESS)
