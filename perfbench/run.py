"""aeslab benchmark: one workload per run, single process, single thread,
closed loop (each call returns before the next is issued).

    python3 perfbench/run.py --workload bulk-file --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
--trace 0 measures the end-to-end metrics; --trace 1 repeats the same
rounds with spans recorded at aeslab's layer boundaries and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the machine-readable result; the
lines before it are the full report.  The exit code is 0 only when
every operation and check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 21

# Timed in a fresh interpreter: import (table generation) plus the
# workload's first key expansion and plan.  The interpreter first
# calibrates its own CPU's speed.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from calibration import calibration_s
c = calibration_s()
t0 = time.process_time()
import aeslab
ks = aeslab.key_expansion(bytes.fromhex(sys.argv[3]))
aeslab.make_plan(sys.argv[4], ks.n_r)
print(time.process_time() - t0, c)
"""

# Printed in the report but not gated: they apply to one workload only,
# or (fail_ratio) are zero on a correct program.
REPORT_ONLY_UNITS = {"msg_p50_us": "us", "msg_p99_us": "us", "analyze_kBps": "kB/s",
                     "fail_ratio": "ratio"}


def import_program():
    """Import aeslab from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aeslab
    except ImportError as e:
        sys.exit(f"perfbench: cannot import aeslab from {src}: {e}")
    if not Path(aeslab.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported aeslab from {aeslab.__file__}, not from {src}")


def git_head() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def fingerprint(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_head": git_head(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload) -> tuple:
    """Set-up seconds scaled to the reference speed, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "perfbench"),
             str(ROOT / "src"), workload.key.hex(), workload.variant],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, calibration = map(float, r.stdout.split())
        scaled.append(seconds * REFERENCE_S / calibration)
        raw.append(seconds)
    return scaled, raw


def run_rounds(workload, tally, seconds):
    """Run whole rounds until `seconds` have passed."""
    samples = defaultdict(list)
    t0 = perf_counter()
    i = 0
    while i == 0 or perf_counter() - t0 < seconds:
        workload.run_round(i, tally, samples)
        i += 1
    return samples, i, perf_counter() - t0


def end_to_end(workload, tally, seconds) -> dict:
    from layers import summarize

    setup, setup_raw = measure_setup(workload)
    samples, rounds, wall = run_rounds(workload, tally, seconds)

    # Scale to the reference speed: rates grow and times shrink by the
    # run's slowdown.
    slowdown = statistics.median(tally.calibrations) / REFERENCE_S
    msg_us = samples.pop("msg_us", [])
    stats = {"setup_s": {**summarize(setup), "raw_value": statistics.median(setup_raw)}}
    for name, xs in samples.items():
        stats[name] = {**summarize([x * slowdown for x in xs]), "raw_value": statistics.median(xs)}
    if msg_us:
        msg = sorted(x / slowdown for x in msg_us)
        stats["msg_p50_us"] = summarize(msg)
        stats["msg_p99_us"] = {"value": msg[int(0.99 * len(msg))], "n": len(msg)}
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats["peak_rss_MB"] = {"value": maxrss_kib * 1024 / 1e6, "n": 1}
    return {"rounds": rounds, "wall_s": wall,
            "calibration": {**summarize(tally.calibrations), "reference_s": REFERENCE_S,
                            "slowdown": slowdown},
            "metrics": stats}


def per_layer(workload, tally, seconds) -> dict:
    from aeslab import gf256, variants
    from layers import layer_metrics, predictions, summarize
    from spans import Tracer

    builds = {}
    for name, fn in (("gf256.build_sbox_ms", gf256.build_sbox),
                     ("gf256.build_mul_table_ms", gf256.build_mul_table),
                     ("variants.build_t_tables_ms", variants.build_t_tables)):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) * 1000)
        builds[name] = summarize(times)

    # Every round runs untraced and traced, in alternating order, so
    # drift in the machine's speed falls on both sides alike.
    tracer = Tracer()
    untraced = traced = 0.0
    t0 = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - t0 < seconds:
        for on in (False, True) if rounds % 2 == 0 else (True, False):
            with tracer if on else contextlib.nullcontext():
                w0 = perf_counter()
                workload.run_round(rounds, tally, defaultdict(list))
                wall = perf_counter() - w0
            if on:
                traced += wall
            else:
                untraced += wall
        rounds += 1
    m, detail = layer_metrics(tracer, traced)
    m.update({k: v["value"] for k, v in builds.items()})
    m["harness.untraced_wall_s"] = untraced
    m["harness.traced_wall_s"] = traced
    m["harness.trace_overhead_share"] = (traced - untraced) / untraced

    spans = OUT_DIR / f"spans-{workload.name}.tsv"
    tracer.write(spans)
    return {"rounds": rounds, "metrics": m, "table_builds": builds,
            "predictions": predictions(workload.name, m, detail),
            "spans_file": str(spans.relative_to(ROOT)), **detail}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    import_program()
    from checks import Tally, run_gate
    from workloads import WORKLOADS

    report = {"benchmark": "aeslab", "fingerprint": fingerprint(args)}
    tally = Tally()
    run_gate(tally, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            section, metrics = "per_layer", per_layer(workload, tally, args.seconds)
            values = metrics["metrics"]
        else:
            section, metrics = "end_to_end", end_to_end(workload, tally, args.seconds)
            values = {k: v["value"] for k, v in metrics["metrics"].items()}
    fail_ratio = tally.failed / tally.attempted
    report["fingerprint"]["loadavg_end"] = os.getloadavg()
    report["operations"] = {"attempted": tally.attempted, "failed": tally.failed,
                            "fail_ratio": fail_ratio, "failures": tally.reasons,
                            "timed_cpu_s": tally.cpu_s, "timed_wall_s": tally.wall_s}
    units = {m["name"]: m["unit"] for m in spec[section]}
    if not args.trace:
        for name, st in metrics["metrics"].items():
            st["unit"] = units.get(name) or REPORT_ONLY_UNITS[name]
        metrics["metrics"]["fail_ratio"] = {"value": fail_ratio, "unit": "ratio"}
    report[section] = metrics
    print(json.dumps(report, indent=1, sort_keys=False))

    correct = tally.failed == 0
    missing = [name for name in units if name not in values]
    if missing and correct:
        print(f"perfbench: {args.workload} produced no value for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
