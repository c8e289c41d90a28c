"""Metrics: end-to-end figures of a run and the per-layer split of a trace.

Which end-to-end metric each per-layer metric should move, and on which
workload, is written down in NOTES.md.
"""

from __future__ import annotations

import statistics

# end-to-end metrics, printed by every untraced run
END_TO_END = {
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "verified_ops_per_s": "1/s",
    "tprod_p50_ms": "ms",
    "t_svd_p50_ms": "ms",
    "t_pinv_p50_ms": "ms",
    "t_drazin_p50_ms": "ms",
    "t_schur_p50_ms": "ms",
    "verify_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# kernels and reports that run on every workload, and those that run on
# desk_scale only
KERNELS = ("svd", "schur_complex", "schur_real_ordered", "mp_inverse",
           "drazin_inverse", "matrix_index")
DESK_KERNELS = ("jordan_real", "jordan_complex", "rank_normal_form",
                "group_inverse")
REPORTS = ("tsvd_report", "tschur_report", "penrose_report", "drazin_report")
DESK_REPORTS = ("tjordan_report", "idem_report", "inverse_report",
                "group_report", "witness_report")

# per-layer metrics of a traced run; ".s" is inclusive time, ".self_s"
# excludes time in traced callees, and both are per traced job.  A metric
# must be nonzero on every workload, like an end-to-end one; figures that
# are 0 on some workload are in OTHER_LAYER, printed but not reported.
PER_LAYER = {
    "fourier.to_fourier.calls": "calls/job",
    "fourier.to_fourier.s": "s/job",
    "fourier.assemble_real.calls": "calls/job",
    "fourier.assemble_real.s": "s/job",
    "fourier.lift_multi.calls": "calls/job",
    "fourier.lift_multi.self_s": "s/job",
    "fourier.mirror_blocks.s": "s/job",
    "fourier.check_pairing.s": "s/job",
    "fourier.transforms_per_op": "calls/op",
    "fourier.transform_flops": "flop/op",
    **{f"kernels.{k}.{stat}": unit for k in KERNELS
       for stat, unit in (("calls", "calls/job"), ("s", "s/job"))},
    "kernels.blocks_per_lift_over_p": "ratio",
    **{f"verify.{r}.s": "s/job" for r in REPORTS},
    "verify.share": "ratio",
    "core.tprod.calls": "calls/job",
    "core.tprod.s": "s/job",
    "core.power.calls": "calls/job",
    "generate.gen.s": "s",
    "trace.overhead_ratio": "ratio",
}
OTHER_LAYER = {
    **{f"kernels.{k}.{stat}": unit for k in DESK_KERNELS
       for stat, unit in (("calls", "calls/job"), ("s", "s/job"))},
    **{f"verify.{r}.s": "s/job" for r in DESK_REPORTS},
    "core.bcirc.calls": "calls/job",
    "core.bcirc.s": "s/job",
    "io.bytes": "B/job",
    "io.read_tensor.s": "s/job",
    "io.write_tensor.s": "s/job",
    "cli.import_s": "s/job",
    "cli.cli_main.self_s": "s/job",
}


# share of the jobs that the tail must have beyond it, besides ten jobs
TAIL_SHARE = 0.05


def tail(samples):
    """The highest percentile with at least ten samples, and at least
    :data:`TAIL_SHARE` of them, beyond it.

    Returns (value, percentile).  Below twenty samples that percentile would
    not lie above the median, so the maximum is returned as the 100th.
    With thousands of short jobs, as on desk_scale, ten jobs beyond would be
    the 99.7th percentile: the few jobs that a stall of a shared machine
    happens to hit, not the slowest inputs.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    beyond = max(10, int(TAIL_SHARE * n))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


class Recorder:
    """Collects the jobs of one run.

    Every op time is stored multiplied by its machine-speed factor (see
    calibrate.py), in reference-speed seconds; a job's time is the sum of
    its ops'.  Raw times are kept for printing and for ``verify.share``,
    which divides the tracer's raw times by raw op times.

    ``attempted`` and ``failed`` count cases, an op on one input, not op
    executions: a run repeats its inputs as often as its seconds allow, so
    a count of executions would change with the machine's speed.  Every
    execution is checked, and a case fails if any of its executions does.
    """

    def __init__(self):
        self.raw_job_s = []                   # untraced jobs, raw
        self.job_s = []                       # untraced jobs
        self.traced_job_s = []
        self.traced_ops = 0
        self.traced_op_s = 0.0                # raw
        self.op_s: dict[str, list] = {}       # untraced op times
        self.verify_s = []
        self.verified = 0
        self.cases: dict[tuple, bool] = {}    # case -> certified wrong
        self.failures: dict[tuple, int] = {}  # failing case -> times seen

    def add(self, job_s, outcomes, seed, shape, kind, factor, traced=False):
        """Record a job; ``factor`` applies to ops without a factor of their own."""
        for o in outcomes:
            if o.factor is None:
                o.factor = factor
        normalized = sum(o.seconds * o.factor for o in outcomes)
        if traced:
            self.traced_job_s.append(normalized)
            self.traced_ops += len(outcomes)
            self.traced_op_s += sum(o.seconds for o in outcomes)
        else:
            self.raw_job_s.append(job_s)
            self.job_s.append(normalized)
        for o in outcomes:
            case = (seed, "x".join(map(str, shape)), kind, o.op)
            self.cases[case] = self.cases.get(case, False) or o.certified_wrong
            if not traced:
                self.op_s.setdefault(o.op, []).append(o.seconds * o.factor)
                if o.op == "t_pinv" and o.verify_s is not None:
                    self.verify_s.append(o.verify_s * o.factor)
            if o.ok:
                self.verified += not traced
                continue
            key = case + (", ".join(o.failing),)
            self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return len({key[:4] for key in self.failures})

    @property
    def certified_wrong(self) -> int:
        return sum(self.cases.values())

    def summary(self) -> dict:
        if not self.job_s:
            raise RuntimeError("no untraced job completed")
        ms = 1e3
        value, pct = tail(self.job_s)
        op_s = dict(self.op_s)
        if self.verify_s:
            op_s["verify"] = self.verify_s
        return {
            "metrics": {
                "job_p50_ms": statistics.median(self.job_s) * ms,
                "job_tail_ms": value * ms,
                "verified_ops_per_s": self.verified / sum(self.job_s),
                **{f"{op}_p50_ms": statistics.median(s) * ms
                   for op, s in op_s.items()},
            },
            "raw_job_p50_ms": statistics.median(self.raw_job_s) * ms,
            "jobs": len(self.job_s),
            "job_tail_percentile": pct,
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "certified_wrong": self.certified_wrong,
            "failures": [list(k) + [n] for k, n in sorted(self.failures.items())],
        }


def per_layer(tracer, rec: Recorder, setup_gen_s: float) -> dict:
    """:data:`PER_LAYER` and :data:`OTHER_LAYER` from a tracer's statistics."""
    jobs = len(rec.traced_job_s)
    if not jobs:
        raise RuntimeError("no traced job completed")
    ops = rec.traced_ops
    st = tracer.stats

    def per_job(name, key="s"):
        return tracer.get(name, key) / jobs

    out = {}
    for metric in {**PER_LAYER, **OTHER_LAYER}:
        parts = metric.split(".")
        if len(parts) == 3 and parts[2] in ("calls", "s"):
            out[metric] = per_job(f"{parts[0]}.{parts[1]}", parts[2])
    transforms = [st.get(n, {}) for n in ("fourier.to_fourier",
                                          "fourier.inverse_transform")]
    lifts = st.get("fourier.lift_multi", {})
    report_s = sum(tracer.get(f"verify.{r}") for r in REPORTS + DESK_REPORTS)
    out.update({
        "fourier.lift_multi.self_s": tracer.self_s("fourier.lift_multi") / jobs,
        "fourier.transforms_per_op": sum(t.get("calls", 0) for t in transforms) / ops,
        "fourier.transform_flops": sum(t.get("flops", 0) for t in transforms) / ops,
        "kernels.blocks_per_lift_over_p": (
            lifts.get("blocks", 0) / lifts["slices"] if lifts.get("slices") else 0.0),
        "verify.share": report_s / rec.traced_op_s,
        "io.bytes": (tracer.get("io.read_tensor", "bytes")
                     + tracer.get("io.write_tensor", "bytes")) / jobs,
        "cli.import_s": per_job("cli.import"),
        "cli.cli_main.self_s": tracer.self_s("cli.cli_main") / jobs,
        "generate.gen.s": setup_gen_s,
        "trace.overhead_ratio": (statistics.median(rec.traced_job_s)
                                 / statistics.median(rec.job_s)),
    })
    return out
