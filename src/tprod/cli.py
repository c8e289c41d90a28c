"""Command-line interface.

Every computing subcommand ends by verifying its own defining identities
and refuses to exit 0 when that verification fails, which ``verify``
repeats on the factor files of any of them but ``tprod``.  Exit codes:

    0  success / verification passed
    1  verification failed
    2  usage error or unreadable/malformed file
    3  mathematical error (singular tensor, missing group inverse,
       defective block, partition violation, ...)
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import factorizations as fz
from . import ginverses as gi
from .core import tprod
from .errors import DimensionError, IoError, MathError, ParseError
from .generate import KINDS, gen
from .io import read_tensor, write_tensor
from .report import ResidualReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MATH = 3


@dataclass(frozen=True)
class Op:
    """One computing subcommand.

    ``compute(a, args)`` returns a result whose ``attrs`` hold the factors
    and whose ``report`` verifies them, or, when ``attrs`` is empty, the one
    factor itself.  ``report(a, *factors)`` checks given factors, for the
    ops without a report of their own and under ``verify``.  One factor is
    written to ``-o``, several to ``<prefix>_<name>.tns``.
    """

    help: str
    factors: tuple[str, ...]
    attrs: tuple[str, ...]
    compute: Callable
    report: Callable


# The reports are looked up when called, so a tracer that rebinds the
# module attributes of fz and gi sees the CLI's verification as well.
OPS = {
    "tsvd": Op(
        "real tensor SVD", ("U", "S", "V"), ("u", "s", "v"),
        lambda a, args: fz.t_svd(a),
        lambda a, *f: fz.tsvd_report(a, *f)),
    "tschur": Op(
        "real t-Schur decomposition", ("U", "T"), ("u", "t"),
        lambda a, args: fz.t_schur(a),
        lambda a, *f: fz.tschur_report(a, *f)),
    "tjordan": Op(
        "real block-bi-diagonal similarity", ("P", "J"), ("p", "j"),
        lambda a, args: fz.t_jordan(a),
        lambda a, *f: fz.tjordan_report(a, *f)),
    "idem": Op(
        "factorization through a real idempotent", ("U", "E", "V"),
        ("u", "e", "v"),
        lambda a, args: fz.idempotent_factorization(a),
        lambda a, *f: fz.idem_report(a, *f)),
    "tinv": Op(
        "t-inverse", ("X",), (),
        lambda a, args: gi.t_inverse(a),
        lambda a, *f: gi.inverse_report(a, *f)),
    "pinv": Op(
        "Moore-Penrose inverse", ("X",), (),
        lambda a, args: gi.t_pinv(a, route=args.route),
        lambda a, *f: gi.penrose_report(a, *f)),
    # verified at the index t_drazin computes for the input
    "drazin": Op(
        "Drazin inverse", ("X",), ("ad",),
        lambda a, args: gi.t_drazin(a),
        lambda a, ad: gi.drazin_report(a, ad, gi.t_index(a))),
    "group": Op(
        "group inverse", ("X",), (),
        lambda a, args: gi.t_group(a),
        lambda a, *f: gi.group_report(a, *f)),
    "witness": Op(
        "invertible von Neumann inverse", ("X",), ("w",),
        lambda a, args: gi.unit_regular_witness(a),
        lambda a, *f: gi.witness_report(a, *f)),
}


class _UsageError(Exception):
    pass


def _tolerance(text: str) -> float:
    """A ``--tol`` value, finite and nonnegative: NaN or a negative would
    fail every check, and inf would pass every one."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be finite and nonnegative, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=_tolerance, default=None,
        help="check every residual of the report against this tolerance",
    )
    common.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the verification report as JSON",
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress the residual summary"
    )

    parser = argparse.ArgumentParser(
        prog="tprod",
        description="t-product tensor factorizations and generalized "
                    "inverses with residual verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tprod", parents=[common], help="t-product of two tensors")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(run=_run_tprod)

    for name, op in OPS.items():
        sp = sub.add_parser(name, parents=[common], help=op.help)
        sp.add_argument("a")
        if len(op.factors) > 1:
            sp.add_argument("--out-prefix", required=True)
        else:
            sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(run=_run_op)
    sub.choices["pinv"].add_argument(
        "--route", choices=("blocks", "svd"), default="blocks")

    sp = sub.add_parser("verify", parents=[common],
                        help="verify factors from files against an input")
    sp.add_argument("--kind", required=True, choices=sorted(OPS))
    sp.add_argument("factors", nargs="+")
    sp.add_argument("--input", required=True)
    sp.set_defaults(run=_run_verify)

    sp = sub.add_parser("gen", parents=[common], help="generate a seeded tensor")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--dims", type=int, nargs=3, required=True,
                    metavar=("M", "N", "P"))
    sp.add_argument("--kind", choices=KINDS, default="dense")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(run=_run_gen)

    return parser


def _run_gen(args) -> ResidualReport:
    m, n, p = args.dims
    write_tensor(args.output, gen(args.seed, m, n, p, args.kind))
    return ResidualReport("gen")


def _dual_path_tolerance(a, b) -> float:
    """The ``dual_path_agreement`` allowance: 1e-11 * (1 + max|A|) *
    (1 + max|B|).  Beyond the float64 range it would pass any
    disagreement, as ``--tol inf`` would, so it is a MathError."""
    scale = (1.0 + a.max_abs) * (1.0 + b.max_abs)
    if not math.isfinite(scale):
        raise MathError("the dual-path allowance overflowed the float64 range")
    return 1e-11 * scale


def _run_tprod(args) -> ResidualReport:
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    c = tprod(a, b, path="direct")
    write_tensor(args.output, c)
    c_fourier = tprod(a, b, path="fourier")
    with ResidualReport("tprod") as report:
        report.add("dual_path_agreement", (c - c_fourier).max_abs,
                   _dual_path_tolerance(a, b))
    return report


def _run_op(args) -> ResidualReport:
    op = OPS[args.command]
    a = read_tensor(args.a)
    res = op.compute(a, args)
    factors = tuple(getattr(res, attr) for attr in op.attrs) or (res,)
    if len(factors) == 1:
        write_tensor(args.output, factors[0])
    else:
        for name, tensor in zip(op.factors, factors):
            write_tensor(f"{args.out_prefix}_{name}.tns", tensor)
    return res.report if op.attrs else op.report(a, *factors)


def _run_verify(args) -> ResidualReport:
    names = OPS[args.kind].factors
    if len(args.factors) != len(names):
        raise _UsageError(
            f"verify --kind {args.kind} takes {len(names)} factor files "
            f"({', '.join(names)}), got {len(args.factors)}"
        )
    a = read_tensor(args.input)
    factors = [read_tensor(path) for path in args.factors]
    return OPS[args.kind].report(a, *factors)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS

    try:
        report = args.run(args)
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (_UsageError, ParseError, IoError, DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.tol is not None:
        report = report.with_tolerance(args.tol)

    if args.report:
        try:
            with open(args.report, "w", encoding="ascii") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    return EXIT_PASS if report.passed else EXIT_FAIL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
