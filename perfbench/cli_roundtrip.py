"""The ``cli_roundtrip`` workload: the ``tprod`` console script, one
subprocess at a time, on ``.tns`` files.

Each subprocess is ``launch.py``, which stands in for the installed console
script (``tprod = "tprod.cli:main"``) and imports tprod from this checkout's
``src``.  A job runs ``gen`` and then the subcommands in :data:`STEPS` on the
generated file; each op's time is its subprocess round trip.  Outputs are
read back with ``np.loadtxt`` and checked against :mod:`reference` after the
job.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import tprod

import calibrate
import reference as ref
from workloads import KINDS, OpOutcome, input_seed

SHAPE = (16, 16, 128)
# inputs per run, one of each kind; job i generates input i % POOL
POOL = len(KINDS)
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
STEP_TIMEOUT_S = 120
# prefix of the failing check of a subprocess that exited non-zero without
# a residual summary
CRASH = "exit "

# (op name, tprod subcommand arguments); {d} is the job's directory
STEPS = (
    ("tprod", ["tprod", "{d}/A.tns", "{d}/A.tns", "-o", "{d}/C.tns"]),
    ("t_pinv", ["pinv", "{d}/A.tns", "-o", "{d}/X.tns"]),
    ("verify", ["verify", "--kind", "pinv", "{d}/X.tns", "--input", "{d}/A.tns"]),
    ("t_svd", ["tsvd", "{d}/A.tns", "--out-prefix", "{d}/F"]),
    ("t_drazin", ["drazin", "{d}/A.tns", "-o", "{d}/D.tns"]),
    ("t_schur", ["tschur", "{d}/A.tns", "--out-prefix", "{d}/T"]),
)


def load_tns(path) -> np.ndarray:
    """Read a .tns file as a (p, m, n) array without using tprod.io."""
    with open(path, encoding="ascii") as fh:
        m, n, p = (int(x) for x in fh.readline().split())
        data = np.loadtxt(fh, ndmin=2)
    return data.reshape(p, m, n)


def _failed_checks(stdout: str) -> list:
    """Names of the FAIL lines of a residual summary."""
    return [line.strip().split(":")[0] for line in stdout.splitlines()
            if line.startswith("  ") and line.rstrip().endswith(" FAIL")]


def _singular_values_of(s: np.ndarray) -> np.ndarray:
    diag = np.diagonal(np.fft.fft(s, axis=0), axis1=1, axis2=2)
    return -np.sort(-np.abs(diag), axis=1)


class CliJob:
    """One job of the workload: the input's seed and kind, and a directory."""

    def __init__(self, seed: int, index: int, workdir: Path):
        self.seed = input_seed(seed, index % POOL)
        self.kind = KINDS[index % POOL]
        self.shape = SHAPE
        self.dir = workdir / f"job{index}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def argv(self):
        m, n, p = SHAPE
        d = str(self.dir)
        gen = ["gen", "--seed", str(self.seed), "--dims", str(m), str(n), str(p),
               "--kind", self.kind, "-o", f"{d}/A.tns"]
        yield "gen", gen
        for name, args in STEPS:
            yield name, [arg.format(d=d) for arg in args]


def _launch(args, trace_out=None):
    cmd = [sys.executable, str(LAUNCHER)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return subprocess.run(cmd + ["--"] + args, capture_output=True, text=True,
                          timeout=STEP_TIMEOUT_S)


def run_job(job: CliJob, trace_dir: Path | None = None):
    """Run the job's subprocesses one at a time, then check the outputs.

    With ``trace_dir`` each child traces itself and dumps its span
    statistics there.  Returns (job seconds, [OpOutcome], trace files).

    Machine speed is calibrated between the subprocesses and each op
    keeps its own factor, from the samples right before and right after
    it: the round trips are few and long, and a factor per op followed the
    machine far better than one per job (quartile spread of 10 windows of
    20 s: 0.01 against 0.08).  Adding the samples after the op took the
    spread of job times on a recorded 200 s trace from 0.091 to 0.072.
    """
    timed, traces = [], []
    job_s = 0.0
    before = []
    calibrate.calibrate(before)
    for i, (name, args) in enumerate(job.argv()):
        trace_out = None if trace_dir is None else trace_dir / f"{os.getpid()}_{i}.json"
        t0 = time.perf_counter()
        proc = _launch(args, trace_out)
        seconds = time.perf_counter() - t0
        job_s += seconds
        after = []
        calibrate.calibrate(after)
        timed.append((name, seconds, calibrate.factor(statistics.median(before + after)),
                      proc))
        before = after
        if trace_out is not None:
            traces.append(trace_out)
    return job_s, [_check(job, *step) for step in timed], traces


def _check(job: CliJob, name: str, seconds: float, factor: float, proc) -> OpOutcome:
    out = OpOutcome(name, seconds, factor)
    if proc.returncode != 0:
        failing = _failed_checks(proc.stdout)
        if not failing:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            failing = [f"{CRASH}{proc.returncode}: {last}"]
        out.failing.extend(failing)
        return out
    d = job.dir
    try:
        a = load_tns(d / "A.tns")
        if name == "gen":
            err = None if np.array_equal(
                a, tprod.gen(job.seed, *SHAPE, job.kind).array) else 1.0
        elif name == "tprod":
            err = ref.check_tprod(a, a, load_tns(d / "C.tns"))
        elif name == "t_pinv":
            err = ref.check_pinv(a, load_tns(d / "X.tns"))
        elif name == "t_svd":
            err = ref.check_singular_values(
                a, _singular_values_of(load_tns(d / "F_S.tns")))
        else:
            err = None
    except (OSError, ValueError) as exc:
        out.failing.append(f"unreadable output: {exc}")
        out.certified_wrong = True
        return out
    if err is not None:
        out.failing.append(f"reference(rel_err={err:.3e})")
        out.certified_wrong = True
    return out
