"""conversekit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (perfbench/worker.py) that imports conversekit from the
checkout's `src/`, with CONVERSE_KIT_THREADS unset and BLAS pinned to one
thread.  The bytecode cache is warmed first.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  setup_s is the
median over SETUP_SAMPLES fresh interpreters (the measured one plus extra
set-up-only ones) of the time from spawning the interpreter to its first
timed job: import, input generation and one untimed warm-up job.  Times
are scaled to nominal host speed by the workload's gauge (gauge.py); the
raw ones are in the report.
--trace 1 prints the per-layer metrics from a traced run.

The last stdout line is the result object; the line before it is a report
with the tail percentile, sample counts, machine facts, the sweep CSV
hashes and, when traced, the ROADMAP cross-check.
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

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
# every child must be done by then, so the whole run ends within 180 s
BUDGET_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def hermetic_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("CONVERSE_KIT_THREADS", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONOPTIMIZE",
                     "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, env, deadline):
    """Run one child to completion; its last stdout line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("time budget exhausted before all children ran")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        fail(f"child timed out: {' '.join(cmd[1:4])}")
    if proc.returncode != 0:
        fail(f"child exited {proc.returncode}: {' '.join(cmd[1:])}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("child printed nothing")
    return json.loads(lines[-1])


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    for needed in ("src/conversekit/__init__.py", "docs/golden"):
        if not (ROOT / needed).exists():
            fail(f"{needed} missing: run from a full conversekit checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    env = hermetic_env()
    py = sys.executable
    subprocess.run(
        [py, "-m", "compileall", "-q", "src/conversekit", "perfbench"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60,
    )
    subprocess.run([py, "-c", "import conversekit.cli"], cwd=ROOT, env=env, check=True, timeout=60)

    worker = str(ROOT / "perfbench" / "worker.py")
    base = [py, worker, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    def setup_only():
        cmd = base + ["--setup-only", "--t0", repr(time.perf_counter())]
        return run_child(cmd, env, deadline)

    # Extra set-up samples are split between before and after the measured
    # interpreter, so their median spans the run rather than one moment.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [setup_only() for _ in range(extra // 2)]
    out = run_child(base + ["--t0", repr(time.perf_counter())], env, deadline)
    setups.append(out)
    setups += [setup_only() for _ in range(extra - extra // 2)]
    setup_samples = [s["setup_s"] for s in setups]

    kind = "per_layer" if args.trace else "end_to_end"
    measured = dict(out["metrics"], setup_s=statistics.median(setup_samples))
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    report = dict(
        out["info"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_s_samples=setup_samples,
        setup_raw_s_samples=[s["setup_raw_s"] for s in setups],
        git_revision=git_revision(),
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
