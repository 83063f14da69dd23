#!/usr/bin/env python3
"""lhvlab benchmark: run one workload for a fixed time and check every output.

    python3 bench/run.py --workload exact_corpus --seed 20240913 --seconds 20 --trace 0

Run from anywhere inside a full checkout; lhvlab is imported from the
checkout's ``src/``.  Load is a closed loop from one process: one unit at
a time, and for ``cli`` one child process at a time.  With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics taken from
spans the benchmark records around its own calls into lhvlab, and the
spans are written to ``.bench_out/``.  Metric names and units come from
``BENCHMARK.json``; ``bench/README.md`` defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20240913  # the acceptance corpus seed
SETUP_REPEATS = 3
REQUIRED = ("src/lhvlab/__init__.py", "fixtures/loophole_winner.model.json", "schemas", "BENCHMARK.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact_corpus", "fine_lp", "search", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" at {Path(frame.filename).name}:{frame.lineno}" if frame else ""
    return f"{type(exc).__name__}{where}: {exc}"


def run(args, spec: dict) -> dict:
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS, Mismatch

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    tracer = Tracer(enabled=False)
    workload = WORKLOADS[args.workload](ROOT, args.seed, tracer, tmp)
    probe = SpeedProbe(enabled=workload.host_scaled)
    problems: list[str] = []
    failures: dict[int, str] = {}
    first_counts: dict[int, dict] = {}
    setups: list[tuple[float, float]] = []
    units: list[tuple[float, float]] = []
    window: Counter = Counter()
    items = 0
    try:
        # set-up, repeated: input generation, serialization and warm-up units
        prints = []
        for _ in range(SETUP_REPEATS):
            probe.sample()
            t0 = perf_counter()
            workload.setup()
            for index in range(workload.warmup_units):
                _, counts = workload.unit(index)
                if first_counts.setdefault(index, counts) != counts:
                    problems.append(f"warm-up unit {index} counts drift between set-ups")
            setups.append((t0, perf_counter()))
            prints.append(workload.fingerprint())
        if len(set(prints)) != 1:
            problems.append("set-up is not deterministic: inputs differ between repeats")

        tracer.enabled = args.trace == 1
        probe.sample()
        i = 0
        start = perf_counter()
        while i < workload.count_window or perf_counter() - start < args.seconds:
            index = i % len(workload)
            tracer.unit = i
            counts = None
            t0 = perf_counter()
            try:
                with tracer.span("bench.unit"):
                    done, counts = workload.unit(index)
                items += done
            except Mismatch as exc:
                failures[i] = f"unit {i}: {exc}"
            except Exception as exc:  # the program failed on this unit; record it and go on
                failures[i] = f"unit {i}: {describe(exc)}"
            units.append((t0, perf_counter()))
            probe.maybe_sample()
            if counts is not None:
                if first_counts.setdefault(index, counts) != counts:
                    failures[i] = f"unit {i}: counts drift from the first visit of pool entry {index}"
                if i < workload.count_window:
                    window.update(counts)
            i += 1
        probe.sample()
        elapsed = perf_counter() - start
        tracer.unit = None
        for call, message in workload.finish().items():
            failures.setdefault(call, message)
        probe.sample()
    finally:
        tracer.enabled = False
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    attempted = len(units)
    wall = sorted(t1 - t0 for t0, t1 in units)
    latencies = sorted(probe.scaled(t0, t1) for t0, t1 in units)
    tail = percentile(latencies, workload.tail_pct)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "messages": problems + [failures[k] for k in sorted(failures)],
        "correct": not problems and not failures,
        "end_to_end": {
            "setup_s": statistics.median(probe.scaled(t0, t1) for t0, t1 in setups),
            "items_per_s": items / sum(latencies),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail * 1e3,
            "peak_rss_mb": workload.peak_rss_mb(),
        },
        "notes": [
            f"{attempted} units, {items} {workload.item} in {elapsed:.3f} s wall (closed loop, one at a time)",
            f"item_tail_ms is p{workload.tail_pct:g}: {sum(1 for v in latencies if v > tail)} of {attempted} samples beyond it; "
            + ", ".join(f"p{q:g} {percentile(latencies, q) * 1e3:.6g} ms" for q in (90, 95, 99)),
            f"wall clock, unscaled: {items / sum(wall):.6g} {workload.item}/s, p50 {statistics.median(wall) * 1e3:.6g} ms, "
            f"p{workload.tail_pct:g} {percentile(wall, workload.tail_pct) * 1e3:.6g} ms, "
            f"set-up {', '.join(f'{t1 - t0:.4f}' for t0, t1 in setups)} s",
            f"host speed: kernel median {statistics.median(probe.kernel_s) * 1e3:.4g} ms over {len(probe.kernel_s)} probes, "
            f"range {min(probe.kernel_s) * 1e3:.4g}-{max(probe.kernel_s) * 1e3:.4g} ms"
            if probe.enabled else "host speed: probe off, times are wall clock (the work runs in child processes)",
            f"failed_frac: {len(failures)}/{attempted}",
        ] + [
            f"{name}: {probe.scaled(t0, t1):.6g} s rescaled, {t1 - t0:.6g} s wall"
            for name, (t0, t1) in workload.intervals.items()
        ],
    }
    if args.trace == 1:
        result["per_layer"] = layer_metrics(spec, tracer, probe, workload, window, items / sum(latencies))
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
        result["notes"].append(f"{len(tracer.spans)} spans written to .bench_out/")
    return result


def layer_metrics(spec: dict, tracer, probe, workload, window: Counter, items_per_s: float) -> dict:
    """Every per-layer metric; a layer this workload never calls reads 0.

    ``*_s`` is the mean self time per call, rescaled like the end-to-end
    times; ``*_rss_mb`` the largest child's peak RSS;
    ``trace.items_per_s`` the traced throughput; and every other metric
    a count over the workload's count window.
    """
    self_times = tracer.self_times(probe.factor)
    counts = Counter(window)
    counts.update(workload.extra_counts)
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.items_per_s":
            values[name] = items_per_s
        elif name.endswith("_rss_mb"):
            values[name] = workload.child_rss.get(name[len("cli."):-len("_rss_mb")], 0.0)
        elif metric["unit"] == "s":
            samples = self_times.get(name, [])
            values[name] = sum(samples) / len(samples) if samples else 0.0
        else:
            values[name] = counts.get(name, 0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a full lhvlab checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(args.seed)
    result = run(args, spec)

    kind = "per_layer" if args.trace == 1 else "end_to_end"
    values = result["per_layer"] if args.trace == 1 else result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(f"# lhvlab benchmark: workload {args.workload}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(env))
    for note in result["notes"]:
        print(f"# {note}")
    for message in result["messages"][:20]:
        print(f"# FAILED {message}")
    if args.trace == 1:
        for name, value in result["end_to_end"].items():
            print(f"# traced {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
