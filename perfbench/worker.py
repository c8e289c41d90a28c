"""One workload process: set up, run jobs in a closed loop, report as JSON.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1>
                                <spawn time> [setup-only]

``run.py`` starts it with BLAS pinned to one thread and passes its own
``time.perf_counter()`` at spawn; ``perf_counter`` is the system-wide
monotonic clock on Linux, so set-up time counts from before the
interpreter started.  With ``setup-only`` the process exits after set-up.

The loop runs one job at a time (one caller) until the timed job wall time
reaches the requested seconds and every input of the runner's pool has run
once, so that the cases checked, and those that fail, depend on the seed
alone.  In a traced run, jobs alternate between
untraced and traced, so ``trace.overhead_ratio`` compares jobs of the same
run; the per-layer metrics come from the traced jobs only.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tprod  # noqa: E402

import calibrate  # noqa: E402
import cli_roundtrip  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# jobs run between two calibrations of machine speed, in seconds of job time
CALIBRATE_EVERY_S = 0.15


class InProcessRunner:
    RUSAGE = resource.RUSAGE_SELF  # whose peak RSS is reported

    def __init__(self, workload, seed, tracer):
        self.workload = workload
        self.tracer = tracer
        self.pool = workload.make_pool(seed)
        self.pool_size = len(self.pool)

    def warm_up(self):
        """One call of every op, each on the first input it applies to."""
        done = set()
        for inp in self.pool:
            todo = [op for op in self.workload.ops_for(inp) if op not in done]
            if todo:
                workloads.run_job(tuple(todo), inp)
                done.update(todo)

    def job(self, index, traced):
        inp = self.pool[index % len(self.pool)]
        with self.tracer if traced else contextlib.nullcontext():
            job_s, outcomes = workloads.run_job(self.workload.ops_for(inp), inp)
        return job_s, outcomes, inp.seed, inp.shape, inp.kind

    def close(self):
        pass


class CliRunner:
    RUSAGE = resource.RUSAGE_CHILDREN  # the largest child's

    def __init__(self, seed, tracer, trace):
        self.seed = seed
        self.tracer = tracer
        self.trace = trace
        self.pool_size = cli_roundtrip.POOL
        (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))

    def warm_up(self):
        # the warm-up job is traced in a traced run, so set-up's gen is seen.
        # A subprocess that crashed, rather than failed a check of tprod's,
        # would leave set-up measuring nothing, so it stops the run.
        _, outcomes, *_ = self.job(0, self.trace)
        crashed = [f"{o.op}: {c}" for o in outcomes for c in o.failing
                   if c.startswith(cli_roundtrip.CRASH)]
        if crashed:
            raise RuntimeError("warm-up job crashed: " + "; ".join(crashed))

    def job(self, index, traced):
        cjob = cli_roundtrip.CliJob(self.seed, index, self.dir)
        trace_dir = cjob.dir if traced else None
        job_s, outcomes, traces = cli_roundtrip.run_job(cjob, trace_dir)
        for path in traces:
            with open(path, encoding="ascii") as fh:
                self.tracer.merge(json.load(fh))
        shutil.rmtree(cjob.dir)
        return job_s, outcomes, cjob.seed, cjob.shape, cjob.kind

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    t_spawn = float(argv[4])
    setup_only = argv[5:] == ["setup-only"]
    if not Path(tprod.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tprod was imported from {tprod.__file__}, not {ROOT / 'src'}")

    samples = []  # machine speed around set-up
    calibrate.calibrate(samples)
    tracer = Tracer()
    if name == "cli_roundtrip":
        runner = CliRunner(seed, tracer, trace)
    else:
        if trace:
            tracer.install()  # so that set-up's gen calls are seen
        runner = InProcessRunner(workloads.WORKLOADS[name], seed, tracer)
    try:
        runner.warm_up()
        tracer.uninstall()
        setup_gen_s = tracer.get("generate.gen")
        tracer.reset()
        # from spawn to the first timed op, less the calibration above
        setup_s = time.perf_counter() - t_spawn - sum(samples)
        calibrate.calibrate(samples)
        setup = {"setup_s": setup_s * calibrate.factor(statistics.median(samples)),
                 "raw_setup_s": setup_s}
        if setup_only:
            print(json.dumps(setup))
            return 0

        rec = layers.Recorder()
        index, timed_s, since_calibration = 0, 0.0, 0.0
        before, pending = [], []
        calibrate.calibrate(before)
        # every input runs once; a traced run needs one untraced and one
        # traced job at least
        jobs_needed = max(runner.pool_size, 1 + trace)
        done = False
        while not done:
            traced = trace and index % 2 == 1
            job = runner.job(index, traced)
            timed_s += job[0]
            pending.append((job, traced))
            since_calibration += job[0]
            index += 1
            done = timed_s >= seconds and index >= jobs_needed
            if since_calibration >= CALIBRATE_EVERY_S or done:
                # the jobs since the last calibration are normalized by the
                # samples taken before and after them, unless their ops
                # calibrated themselves
                after = []
                calibrate.calibrate(after)
                factor = calibrate.factor(statistics.median(before + after))
                for job, traced in pending:
                    rec.add(*job, factor=factor, traced=traced)
                before, pending, since_calibration = after, [], 0.0
        result = rec.summary() | setup
        result["peak_rss_mb"] = resource.getrusage(runner.RUSAGE).ru_maxrss / 1024.0
        if trace:
            result["layers"] = layers.per_layer(tracer, rec, setup_gen_s)
        result["environment"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        tracer.uninstall()
        runner.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
