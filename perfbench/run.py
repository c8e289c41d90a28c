"""The tprod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports tprod from ``src`` and nothing
else.  Each workload runs in a fresh worker process with BLAS pinned to one
thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with tprod's public functions wrapped and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it list the environment, every failing case and the
figures that are not metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("slice_heavy", "block_heavy", "desk_scale", "cli_roundtrip")

# set-up is measured this many times per run, the measuring worker included
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

# pinned before numpy is imported in any workload process
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _worker(args, extra=(), timeout=WORKER_TIMEOUT_S) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd + [repr(t_spawn), *extra], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "tprod" / "__init__.py").is_file():
        print(f"error: no tprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import layers

    setups = []
    if not args.trace:
        setups = [_worker(args, ["setup-only"], timeout=120)
                  for _ in range(SETUP_SAMPLES - 1)]
    result = _worker(args)
    setups.append(result)

    if args.trace:
        names, values = layers.PER_LAYER, result["layers"]
    else:
        names = layers.END_TO_END
        values = dict(result["metrics"],
                      setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=result["peak_rss_mb"])
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in names.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(result["environment"]))
    for key in ("jobs", "job_tail_percentile", "attempted", "failed",
                "fail_ratio", "certified_wrong", "raw_job_p50_ms"):
        print(f"{key} {result[key]}")
    print("setup_s samples " + " ".join(f"{s['setup_s']:.4f}" for s in setups)
          + "  raw " + " ".join(f"{s['raw_setup_s']:.4f}" for s in setups))
    for seed, shape, kind, op, checks, times in result["failures"]:
        print(f"FAIL seed={seed} shape={shape} kind={kind} op={op} "
              f"checks=[{checks}] times={times}")
    others = dict(result["metrics"], **result.get("layers", {}))
    for k, v in others.items():
        if k not in metrics:
            print(f"other {k} {v:.6g}")
    for k, m in metrics.items():
        print(f"metric {k} {m['value']:.6g} {m['unit']}")
    # a failed op is counted and listed above; only a result that passed
    # every check of the program but not the reference is incorrect
    print(json.dumps({
        "correct": result["certified_wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
