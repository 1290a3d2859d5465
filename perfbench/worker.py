"""One workload in one fresh interpreter: import, build inputs, warm up, run jobs.

run.py starts this script with the checkout's `src/` as the only
PYTHONPATH entry and reads the JSON object it prints as its last line.

--trace 0: a closed loop with one client runs jobs back to back for
--seconds and reports job latencies.  The workload's gauge (gauge.py) is
timed right after every job, and each latency is scaled to nominal host
speed by that reading; the raw figures go into the report.  With
--setup-only the process stops after the warm-up job and reports only its
set-up time, scaled by the median of SETUP_GAUGE_READINGS gauge readings
taken after it.

--trace 1: for --seconds, each job runs once untraced and then again with
spans on.  Per-layer numbers come from those spans; tracing overhead is
traced minus untraced wall time, probes excluded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_GAUGE_READINGS = 40
# a job's speed is the median of the gauge readings this many jobs either side of it
GAUGE_SMOOTHING = 2

# the per-call figures ROADMAP "Recent" quotes, to set beside the traced run
ROADMAP_FIGURES = {
    "oracle.renyi_gaussian_quadrature": ("ms/call", "about 300"),
    "converse.strong_converse_bound": ("ms/call", "about 0.2-0.3"),
    "converse.optimize_lambda": ("ms/call", "about 22-33"),
    "applications.compute_bounds": ("us/call", "about 50-65"),
}


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="perf_counter() when run.py spawned us")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def run_job(wl, tr, i):
    """Job i on input i mod pool size; returns its latency and error, if any."""
    tr.job = i
    inp = wl.inputs[i % len(wl.inputs)]
    error = None
    a = clock()
    try:
        if tr.on:
            tr.call("job", wl.job, inp, tr)
        else:
            wl.job(inp, tr)
    except Exception as exc:  # a failed job is counted, and the loop goes on
        error = f"job {i}: {type(exc).__name__}: {exc}"
    return clock() - a, error


def run_jobs(wl, tr, seconds, gauge):
    """Closed loop, one client: job i+1 starts only after job i returned.

    The gauge is read right after each job.  Stops at the first job ending
    `seconds` after the loop started.  Returns per-job latencies, the gauge
    reading after each, and the failed jobs' errors.
    """
    latencies, readings, errors = [], [], []
    start = clock()
    while True:
        latency, error = run_job(wl, tr, len(latencies))
        latencies.append(latency)
        readings.append(gauge.measure())
        if error:
            errors.append(error)
        if clock() - start >= seconds:
            break
    return latencies, readings, errors


def tail_latency(latencies, percentile):
    """Latency at `percentile` (nearest rank), or lower if that leaves fewer
    than ten samples beyond it.

    A fixed percentile, not the highest one with ten samples beyond it:
    the job count follows the host's speed, and a percentile that moved
    with it would move the tail from run to run.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(min(math.ceil(percentile / 100.0 * n), n - 10), 1)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def smoothed(readings, half=GAUGE_SMOOTHING):
    """Each gauge reading replaced by the median of it and its neighbours.

    One reading takes milliseconds, and an interrupt can skew it; the
    median of the readings around a job is a steadier speed for that job.
    """
    return [
        statistics.median(readings[max(0, i - half) : i + half + 1]) for i in range(len(readings))
    ]


def latency_metrics(latencies, done, percentile):
    """jobs_per_s is successful jobs per second of job time."""
    tail, pct, beyond = tail_latency(latencies, percentile)
    metrics = {
        "jobs_per_s": done / sum(latencies),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail,
    }
    return metrics, pct, beyond


def timed_run(wl, tr, seconds, gauge):
    start = clock()
    raw, readings, errors = run_jobs(wl, tr, seconds, gauge)
    elapsed = clock() - start
    done = len(raw) - len(errors)
    scaled = [gauge.scale(lat, g) for lat, g in zip(raw, smoothed(readings))]
    metrics, pct, beyond = latency_metrics(scaled, done, wl.tail_percentile)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "job_tail_percentile": pct,
        "job_tail_samples_beyond": beyond,
        "jobs": len(raw),
        "timed_s": elapsed,
        "raw_metrics": latency_metrics(raw, done, wl.tail_percentile)[0],
        "gauge": {
            "parts": list(gauge.parts),
            "nominal_ms": 1e3 * gauge.nominal_s,
            "median_ms": 1e3 * statistics.median(readings),
            "share_of_loop": sum(readings) / elapsed,
        },
    }
    return raw, errors, metrics, info, {"latency_s": raw, "gauge_s": readings}


def traced_run(wl, tr, seconds, import_s, names):
    """Per-layer metrics `names` from a traced run; see the module docstring."""
    # Each job runs untraced, then traced; pairing them keeps drift in the
    # machine's speed out of the overhead estimate.
    untraced = spans.NullTracer()
    setup_spans, tr.spans = tr.spans, []
    base_lat, lat, errors = [], [], []
    start = clock()
    while clock() - start < seconds:
        i = len(lat)
        for tracer, into in ((untraced, base_lat), (tr, lat)):
            latency, error = run_job(wl, tracer, i)
            into.append(latency)
            if error:
                errors.append(error)
    n = len(lat)
    job_spans = tr.spans
    by_name = spans.summarize(job_spans)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0) / n

    def busy(name):
        return by_name.get(name, {}).get("busy_s", 0.0) / n

    def frac(name, outcome):
        made = by_name.get(name, {}).get("calls", 0)
        return tr.counts[f"{name}.{outcome}"] / made if made else 0.0

    untraced_s = sum(base_lat)
    probe_s = spans.probe_wall(job_spans)
    job_s = sum(s[2] - s[1] for s in job_spans if s[0] == "job")
    special = {
        "init.import_s": import_s,
        "divergence.renyi_discrete.cells": tr.counts["divergence.renyi_discrete.cells"] / n,
        # the sweep probe times all of a job's compute_bounds calls in one span
        "applications.compute_bounds.calls": tr.counts["applications.compute_bounds.calls"] / n,
        "converse.strong_converse_bound.vacuous_frac": frac(
            "converse.strong_converse_bound", "vacuous"
        ),
        "converse.optimize_lambda.boundary_frac": frac("converse.optimize_lambda", "boundary"),
        "converse.optimize_lambda.boundary_flag_frac": frac(
            "converse.optimize_lambda", "boundary_flag"
        ),
        "oracle.quadrature.worst_rel_err": tr.peaks["oracle.quadrature.worst_rel_err"],
        "packing.operator_norm.rel_err": tr.peaks["packing.operator_norm.rel_err"],
        "packing.gv_greedy.codewords": tr.counts["packing.gv_greedy.codewords"] / n,
        "packing.verify_packing.pairs": tr.counts["packing.verify_packing.pairs"] / n,
        "cli.self_s": busy("cli.main") - busy("applications.compute_bounds"),
        "cli.bytes_out": tr.counts["cli.bytes_out"] / n,
        # input generation happens once per run, so this one is a total
        "suites.random_discrete_family.busy_s": spans.summarize(setup_spans)
        .get("suites.random_discrete_family", {})
        .get("busy_s", 0.0),
        "trace.overhead_frac": (job_s - probe_s - untraced_s) / untraced_s,
        "trace.named_layer_frac": spans.busy_under(job_spans, wl.named_layers) / (job_s - probe_s),
    }
    m = {}
    for name in names:
        if name in special:
            m[name] = special[name]
        elif name.endswith(".calls"):
            m[name] = calls(name[: -len(".calls")])
        elif name.endswith(".busy_s"):
            m[name] = busy(name[: -len(".busy_s")])

    crosscheck = {
        name: {
            "unit": unit,
            "roadmap": quoted,
            "measured": busy(name) / m[name + ".calls"] * (1e6 if unit == "us/call" else 1e3),
        }
        for name, (unit, quoted) in ROADMAP_FIGURES.items()
        if m[name + ".calls"]
    }
    crosscheck["init.import_s"] = {"unit": "s", "roadmap": "about 0.1-0.3", "measured": import_s}
    info = {
        "traced_jobs": n,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": job_s,
        "probe_wall_s": probe_s,
        "named_layers": list(wl.named_layers),
        "roadmap_crosscheck": crosscheck,
    }
    return base_lat + lat, errors, m, info, job_spans


def main():
    args = _args()
    t = clock()
    import conversekit

    import_s = clock() - t
    if Path(conversekit.__file__).resolve().parent != (ROOT / "src" / "conversekit").resolve():
        print(f"worker: conversekit imported from {conversekit.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    import gauge as gauges
    import workloads

    tr = spans.Tracer() if args.trace else spans.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tr)
    golden_ok = wl.golden_check()
    _, warm_error = run_job(wl, spans.NullTracer(), 0)
    setup_raw_s = clock() - args.t0
    gauge = gauges.Gauge(wl.gauge_parts)
    gauge.measure()  # its first reading pays for faulting in its arrays
    reading = statistics.median(gauge.measure() for _ in range(SETUP_GAUGE_READINGS))
    out = {
        "setup_s": gauge.scale(setup_raw_s, reading),
        "setup_raw_s": setup_raw_s,
        "import_s": import_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["per_layer"]]
        latencies, errors, metrics, info, job_spans = traced_run(
            wl, tr, args.seconds, import_s, names
        )
    else:
        latencies, errors, metrics, info, jobs = timed_run(wl, tr, args.seconds, gauge)
    out.update(
        correct=golden_ok is not False and not warm_error and not errors,
        attempted=len(latencies),
        failed=len(errors),
        metrics=metrics,
        info=dict(
            info,
            golden_reports_match=golden_ok,
            warmup_error=warm_error,
            errors=errors[:5],
            failed_frac=len(errors) / len(latencies),
            machine=machine_facts(),
            **wl.report(),
        ),
    )
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans.to_records(job_spans, args.t0)))
        out["info"]["spans_file"] = str(path.relative_to(ROOT))
    else:
        path = OUT_DIR / f"jobs-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(jobs))
        out["info"]["jobs_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
