"""Benchmark for pqliouville: four closed-loop workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

One client sends the next op only after the previous one completes; the
seed only permutes the op order inside each cycle of the committed op
list.  The first cycle is a warm-up (checked, not timed), and timing runs
in whole cycles, so every run holds the same mix of ops.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
P90_MIN_OPS = 100

# Set-up as a user pays it: a fresh interpreter imports pqliouville and
# loads the workload's committed inputs.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import pqliouville, workloads; "
               "workloads.load_inputs(sys.argv[2])")


@dataclass
class Record:
    op: object
    seconds: float
    failures: list
    known: bool
    report_bytes: int


def machine_info() -> dict:
    import numpy
    import scipy

    info = {"cpu_model": "unknown", "nproc": os.cpu_count(), "l2_cache": "unknown",
            "l3_cache": "unknown",
            "ram_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    keys = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            info[keys[key.strip()]] = value.strip()
    return info


def setup_seconds(workload: str, repeats: int) -> list[float]:
    from workloads import run_child

    samples = []
    for _ in range(repeats):
        seconds, code, _ = run_child([sys.executable, "-c", SETUP_PROBE, BENCH_DIR, workload],
                                     cwd=ROOT)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append(seconds)
    return samples


def import_seconds(repeats: int) -> dict:
    """Self import time of numpy, scipy and pqliouville modules, from -X importtime."""
    samples = {"numpy": [], "scipy": [], "pqliouville": []}
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pqliouville"],
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        totals = dict.fromkeys(samples, 0)
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                package = fields[2].strip().split(".")[0]
                if package in totals:
                    totals[package] += int(fields[0])
        for package, micros in totals.items():
            samples[package].append(micros / 1e6)
    return {f"setup.import_{'pqliouville_self' if p == 'pqliouville' else p}_s":
            statistics.median(v) for p, v in samples.items()}


def run_cycles(workload, rng, records, *, seconds=None, cycles=None, tracer=None) -> int:
    """Closed loop over whole cycles; returns the number of cycles run."""
    ops = workload.cycle()
    start, done = time.perf_counter(), 0
    while done < cycles if cycles is not None else time.perf_counter() - start < seconds:
        for op in rng.sample(ops, len(ops)):
            if tracer is not None:
                tracer.op = len(records)
            seconds_op, outcome = workload.execute(op, tracer)
            if tracer is not None:
                tracer.op = None
            failures = workload.check(op, outcome)
            known = bool(failures) and op.known_exit is not None and outcome.get("code") == op.known_exit
            records.append(Record(op, seconds_op, failures, known,
                                  workload.report_bytes(op, outcome)))
        done += 1
    return done


def peak_rss_mb(workload) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.child_rss_kb / 1024.0


def end_to_end(workload, name, args, rng, records, lines) -> dict:
    setup = setup_seconds(name, 1 if args.tiny else SETUP_REPEATS)
    run_cycles(workload, rng, records, cycles=1)
    timed: list[Record] = []
    cycles = run_cycles(workload, rng, timed, seconds=args.seconds)
    records.extend(timed)
    lat = [r.seconds for r in timed]
    n, failed = len(timed), sum(1 for r in records if r.failures)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s", f"n={n} ops"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms", f"n={n} ops"),
        "success_frac": (1.0 - failed / len(records), "fraction",
                         f"{len(records) - failed}/{len(records)} ops incl. warm-up"),
        "setup_s": (statistics.median(setup), "s", f"median of n={len(setup)} fresh interpreters"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB",
                        "this run's own process" if workload.in_process else "largest op process"),
        "report_bytes": (statistics.fmean(r.report_bytes for r in timed), "B",
                         f"mean of n={n} ops"),
    }
    lines.append(f"timed: {n} ops in {cycles} cycles, {sum(lat):.3f} s busy")
    for key, (value, unit, note) in metrics.items():
        lines.append(f"  {key:<16} {value!r} {unit}  ({note})")
    if n >= P90_MIN_OPS:
        p90 = 1e3 * sorted(lat)[math.ceil(0.9 * n) - 1]
        lines.append(f"  {'latency_p90_ms':<16} {p90!r} ms  (n={n} ops, nearest rank)")
    else:
        lines.append(f"  {'latency_p90_ms':<16} not reported  (n={n} ops < {P90_MIN_OPS})")
    lines.append(f"  {'failed_frac':<16} {failed / len(records)!r}  ({failed}/{len(records)} ops)")
    return {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()}


def traced(workload, args, rng, records, lines, out_prefix) -> dict:
    from layers import layer_metrics, op_span_seconds
    from tracing import Tracer, install

    extra = import_seconds(1 if args.tiny else IMPORTTIME_REPEATS)
    run_cycles(workload, rng, records, cycles=1)
    # Untraced and traced cycles alternate, so host drift hits both alike.
    plain: list[Record] = []
    spanned: list[Record] = []
    tracer = Tracer()
    start, cycles = time.perf_counter(), 0
    while time.perf_counter() - start < args.seconds:
        run_cycles(workload, rng, plain, cycles=1)
        if workload.in_process:
            install(tracer)
        try:
            run_cycles(workload, rng, spanned, cycles=1, tracer=tracer)
        finally:
            tracer.restore()
        cycles += 1
    records.extend(plain + spanned)
    plain_s, spanned_s = sum(r.seconds for r in plain), sum(r.seconds for r in spanned)
    extra["trace.overhead_s"] = (spanned_s - plain_s) / len(spanned)
    extra["trace.untraced_p50_ms"] = 1e3 * statistics.median(r.seconds for r in plain)
    extra["weights.aux_weights_s"] = (workload.aux_weights_seconds()
                                      if hasattr(workload, "aux_weights_seconds") else 0.0)
    metrics = layer_metrics(tracer.spans, [r.op.name for r in spanned], cycles, extra)
    spans_path = out_prefix + "-spans.jsonl"
    tracer.dump(spans_path)
    lines.append(f"traced: {len(spanned)} ops in {cycles} cycles; untraced {plain_s:.3f} s, "
                 f"traced {spanned_s:.3f} s, {len(tracer.spans)} spans -> "
                 f"{os.path.relpath(spans_path, ROOT)}")
    lines.append(f"  all ops: layer self times sum to {metrics['trace.layer_sum_p50_ms']['value']:.3f} ms "
                 f"(p50) vs untraced p50 {extra['trace.untraced_p50_ms']:.3f} ms; tracing overhead "
                 f"{1e3 * extra['trace.overhead_s']:.3f} ms per op")
    # Per op name the latency is unimodal, so the p50 comparison is well conditioned.
    by_name: dict[str, tuple[list, list, list]] = {}
    for r, covered in zip(spanned, op_span_seconds(tracer.spans, len(spanned))):
        by_name.setdefault(r.op.name, ([], [], []))[0].append(covered)
        by_name[r.op.name][1].append(r.seconds)
    for r in plain:
        by_name[r.op.name][2].append(r.seconds)
    for name, (covered, traced_s, plain_op_s) in by_name.items():
        gap = statistics.median(covered) - statistics.median(plain_op_s)
        overhead = statistics.fmean(traced_s) - statistics.fmean(plain_op_s)
        lines.append(f"  {name}: layer self times sum to {1e3 * statistics.median(covered):.3f} ms "
                     f"(p50), untraced p50 {1e3 * statistics.median(plain_op_s):.3f} ms, gap "
                     f"{1e3 * gap:.3f} ms vs tracing overhead {1e3 * overhead:.3f} ms per op")
    for key, metric in metrics.items():
        lines.append(f"  {key:<44} {metric['value']!r} {metric['unit']}")
    return metrics


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "pqliouville", "__init__.py")):
        print(f"error: no pqliouville sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, SRC)
    import pqliouville

    if not os.path.abspath(pqliouville.__file__).startswith(SRC + os.sep):
        print(f"error: imported pqliouville from {pqliouville.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_root = os.path.join(BENCH_DIR, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(out_root, tag)
    os.makedirs(work_dir)
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}{' tiny' if args.tiny else ''}"]
    machine = machine_info()
    lines.append("machine: " + json.dumps(machine))
    workload = WORKLOADS[args.workload](work_dir, args.tiny, args.wrong_expected)
    rng = random.Random(args.seed)
    records: list[Record] = []
    try:
        if args.trace:
            metrics = traced(workload, args, rng, records, lines, os.path.join(out_root, tag))
        else:
            metrics = end_to_end(workload, args.workload, args, rng, records, lines)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [r for r in records if r.failures]
    for r in failed:
        label = "known defect" if r.known else "FAILED"
        lines.append(f"{label}: {'; '.join(r.failures)}")
    result = {"correct": all(r.known for r in failed), "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    with open(os.path.join(out_root, tag + ".json"), "w") as fh:
        json.dump({"machine": machine, "log": lines, "result": result}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Tiny runs of every workload: all named metrics appear, and wrong expectations fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wrong in ((0, False), (1, False), (0, True)):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            if wrong:
                argv.append("--wrong-expected")
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}{' wrong-expected' if wrong else ''}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result["metrics"]) != sorted(want[trace]):
                missing = sorted(set(want[trace]) - set(result["metrics"]))
                extra = sorted(set(result["metrics"]) - set(want[trace]))
                problems.append(f"{label}: missing {missing}, unexpected {extra}")
            if wrong and (result["correct"] or result["failed"] == 0):
                problems.append(f"{label}: a deliberately wrong expected value went unnoticed")
            if not wrong and not result["correct"]:
                problems.append(f"{label}: output checks failed")
            print(f"self-check {label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "single", "radial", "identities"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check input sizes")
    parser.add_argument("--wrong-expected", action="store_true", dest="wrong_expected",
                        help="perturb one expected value (self-check of the output checks)")
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
