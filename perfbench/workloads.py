"""The benchmark's workloads: their inputs, their ops and how a job runs.

A job is every op of the workload run once on one generated input.  Each
op is timed together with its own residual report; the reference checks of
:mod:`reference` run after the job, outside the timed region.

Import this module only after ``src`` is on ``sys.path``.  Every call into
tprod goes through a module attribute (``tprod.t_svd``, ``gi.t_pinv``), so
that the tracer's wrappers see it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import tprod
from tprod import ginverses as gi

import reference as ref

KINDS = ("dense", "rank_deficient", "t_symmetric")


@dataclass(frozen=True)
class Input:
    seed: int          # the seed handed to tprod.gen
    shape: tuple       # (m, n, p)
    kind: str
    a: object          # Tensor3
    b: object          # Tensor3 right factor for the tprod op

    @property
    def square(self) -> bool:
        return self.shape[0] == self.shape[1]


@dataclass
class OpResult:
    """What an op hands back for checking after the job."""

    report: object = None                 # ResidualReport or None
    check: Callable[[], object] = None    # reference check: None or the error
    output: tuple = ()                    # the op's output arrays
    verify_s: float | None = None         # time of the report inside the op


@dataclass
class OpOutcome:
    op: str
    seconds: float                        # wall time as measured
    factor: float | None = None           # machine-speed factor, see calibrate.py
    failing: list = field(default_factory=list)
    certified_wrong: bool = False
    verify_s: float | None = None
    output: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failing


def input_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


def make_input(seed: int, index: int, shape, kind) -> Input:
    s = input_seed(seed, index)
    a = tprod.gen(s, *shape, kind)
    b = a if shape[0] == shape[1] else tprod.transpose(a)
    return Input(s, tuple(shape), kind, a, b)


# ---------------------------------------------------------------------------
# ops: each takes an Input and returns an OpResult


def op_tprod(inp):
    c = tprod.tprod(inp.a, inp.b)
    return OpResult(None, lambda: ref.check_tprod(inp.a.array, inp.b.array, c.array),
                    (c.array,))


def op_t_svd(inp):
    res = tprod.t_svd(inp.a)
    sigma = res.fourier_singular_values
    return OpResult(res.report, lambda: ref.check_singular_values(inp.a.array, sigma),
                    (res.u.array, res.s.array, res.v.array))


def _pinv_op(route):
    def op(inp):
        x = tprod.t_pinv(inp.a, route=route)
        t0 = time.perf_counter()
        report = gi.penrose_report(inp.a, x)
        verify_s = time.perf_counter() - t0
        return OpResult(report, lambda: ref.check_pinv(inp.a.array, x.array),
                        (x.array,), verify_s)
    return op


def _reported(fn, *names):
    """An op whose result carries its own report; outputs are ``names``."""
    def op(inp):
        res = fn(inp.a)
        return OpResult(res.report, None,
                        tuple(getattr(res, k).array for k in names))
    return op


def _with_report(fn, report_fn):
    """An op returning a bare tensor that ``report_fn`` then verifies."""
    def op(inp):
        x = fn(inp.a)
        return OpResult(report_fn(inp.a, x), None, (x.array,))
    return op


OPS = {
    "tprod": op_tprod,
    "t_svd": op_t_svd,
    "t_pinv": _pinv_op("blocks"),
    "t_drazin": _reported(lambda a: tprod.t_drazin(a), "ad"),
    "t_schur": _reported(lambda a: tprod.t_schur(a), "u", "t"),
    "t_jordan": _reported(lambda a: tprod.t_jordan(a), "p", "j"),
    "idempotent_factorization": _reported(
        lambda a: tprod.idempotent_factorization(a), "u", "e", "v"),
    "unit_regular_witness": _reported(
        lambda a: tprod.unit_regular_witness(a), "w"),
    "t_group": _with_report(lambda a: tprod.t_group(a),
                            lambda a, x: gi.group_report(a, x)),
    "t_pinv_svd": _pinv_op("svd"),
    "t_inverse": _with_report(lambda a: tprod.t_inverse(a),
                              lambda a, x: gi.inverse_report(a, x)),
}

CORE_OPS = ("tprod", "t_svd", "t_pinv", "t_drazin", "t_schur")
RECTANGULAR_OPS = ("tprod", "t_svd", "t_pinv")


@dataclass(frozen=True)
class InProcessWorkload:
    """Ops on a pool of inputs made in set-up; the jobs cycle through it."""

    name: str
    combos: tuple      # ((m, n, p), kind) pairs; input i uses combo i % len
    ops: tuple
    pool_size: int

    def make_pool(self, seed: int) -> list:
        return [make_input(seed, i, *self.combos[i % len(self.combos)])
                for i in range(self.pool_size)]

    def ops_for(self, inp: Input) -> tuple:
        ops = self.ops if inp.square else RECTANGULAR_OPS
        if inp.kind == "rank_deficient":
            # blocks of a rank-deficient tensor are singular by construction
            ops = tuple(op for op in ops if op != "t_inverse")
        return ops


def _grid(shapes, kinds):
    return tuple((shape, kind) for shape in shapes for kind in kinds)


DESK_SQUARE = ((2, 2, 4), (3, 3, 5), (4, 4, 6), (3, 3, 4))
DESK_RECT = ((3, 5, 4), (3, 5, 5))

WORKLOADS = {
    "slice_heavy": InProcessWorkload(
        "slice_heavy", _grid([(4, 4, 512)], KINDS), CORE_OPS, 48),
    "block_heavy": InProcessWorkload(
        "block_heavy", _grid([(64, 64, 16)], KINDS), CORE_OPS, 24),
    "desk_scale": InProcessWorkload(
        "desk_scale",
        _grid(DESK_SQUARE, KINDS) + _grid(DESK_RECT, KINDS[:2]),
        CORE_OPS + ("t_jordan", "idempotent_factorization",
                    "unit_regular_witness", "t_group", "t_pinv_svd",
                    "t_inverse"),
        1600),
}


def run_job(ops: tuple, inp: Input):
    """Run ``ops`` on ``inp`` back to back, then check every result.

    Returns (job wall seconds, [OpOutcome]).  An op that raises counts as
    failed with the exception's class name as its failing check.
    """
    timed = []
    t_job = time.perf_counter()
    for name in ops:
        t0 = time.perf_counter()
        try:
            result = OPS[name](inp)
        except Exception as exc:  # any failure of the op is a result to count
            result = exc
        timed.append((name, time.perf_counter() - t0, result))
    job_s = time.perf_counter() - t_job

    outcomes = []
    for name, seconds, result in timed:
        out = OpOutcome(name, seconds)
        if isinstance(result, Exception):
            out.failing.append(type(result).__name__)
        else:
            passed = True
            if result.report is not None:
                bad = [c.name for c in result.report.checks if not c.passed]
                out.failing.extend(bad)
                passed = not bad
            if result.check is not None:
                err = result.check()
                if err is not None:
                    out.failing.append(f"reference(rel_err={err:.3e})")
                    out.certified_wrong = passed
            out.verify_s = result.verify_s
            out.output = result.output
        outcomes.append(out)
    return job_s, outcomes
