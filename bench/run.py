"""tqsim benchmark: trial throughput and cold CLI runs, with a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports tqsim from ``src``.
Workloads (see README.md): ``bulk-narrow``, ``bulk-fringe`` and
``cli-cold``, each a closed loop of one caller.  ``--trace 0`` times the
workload for S seconds and prints the end-to-end metrics; ``--trace 1``
runs it traced and prints the per-layer metrics.  Every output is checked
against the exact law; the last line of stdout is one JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("bulk-narrow", "bulk-fringe", "cli-cold")
SETUP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "experiments.load_spec_s": "s",
    "experiments.validate_self_s": "s",
    "program.compile_s": "s",
    "program.leaves": "count",
    "program.nodes": "count",
    "program.draws": "count",
    "program.ledger_events": "count",
    "engine.check_bilking_s": "s",
    "engine.audited_events": "count",
    "program.classify_s": "s",
    "program.classify_rows_per_s": "1/s",
    "montecarlo.uniforms_s": "s",
    "montecarlo.uniform_bytes": "B",
    "montecarlo.draws": "count",
    "montecarlo.padded_draws": "count",
    "montecarlo.draw_use_ratio": "ratio",
    "montecarlo.run_self_s": "s",
    "montecarlo.pool_speedup": "ratio",
    "montecarlo.run_payload_s": "s",
    "montecarlo.payload_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="one workload, or 'all' for every metric of every workload",
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args: argparse.Namespace, workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_call": workload.trials,
        "runs_per_call": len(workload.pairs),
        "workers": workload.workers,
        "inputs": [f"{spec.name}/{strategy.value}" for spec, strategy in workload.pairs],
    }


def set_up(args: argparse.Namespace, work_dir: Path):
    """Import tqsim and build the workload; returns it with the seconds taken."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    scale = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, scale, work_dir)
    return workload, time.perf_counter() - start


def _this_script(workload: str, args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), *extra,
    ] + (["--tiny"] if args.tiny else [])


def set_up_in_child(args: argparse.Namespace) -> float:
    """Seconds one fresh process takes for the same set-up."""
    argv = _this_script(args.workload, args, "--seconds", "0", "--setup-only")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced, each in a process of its own;
    prints one line per metric and a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = _this_script(workload, args, "--seconds", str(args.seconds), "--trace", trace)
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            *_, details, result = map(json.loads, done.stdout.strip().splitlines())
            d = details["details"]
            print(f"{workload:<12} trace={trace} calls checked: {result['attempted']}, "
                  f"failed_ratio: {d['failed_ratio']}" + (
                      f", timed calls: {d['timed_calls']}, call_tail_s is "
                      f"p{d['call_tail_percentile']:.0f}" if trace == "0" else ""))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                print(f"{workload:<12} {name:<28} {m['value']:>16.6g} {m['unit']}")
                total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))
    return 0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With 11 samples that is the smallest; with
    fewer, no percentile qualifies and the smallest is returned as well, so
    the value does not jump when a run holds one call fewer.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload, seconds: float) -> tuple[dict, dict, list[list[str]]]:
    """Closed loop of calls for ``seconds``: metrics, details, and each
    call's problems."""
    times, checked, rss_kb = [], [], 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        result = workload.call()
        times.append(result.seconds)
        checked.append(result.problems)
        rss_kb = max(rss_kb, result.peak_rss_kb)
    if workload.in_process:
        # This process and its pool workers; Linux reports KiB.
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
    tail_value, tail_pct = tail(times)
    metrics = {
        "trials_per_s": workload.trials * len(workload.pairs) * len(times) / sum(times),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_value,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {"timed_calls": len(times), "call_tail_percentile": tail_pct}
    return metrics, details, checked


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tqsim" / "__init__.py").is_file():
        print(f"error: no tqsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s = set_up(args, work_dir)
        if args.setup_only:
            print(setup_s)
            return 0
        env = environment(args, workload)
        print(json.dumps({"environment": env}))
        # Checked but untimed calls while the heap grows to its working size.
        checked = [workload.call().problems for _ in range(workload.warmup_calls)]
        details = {"warmup_calls": len(checked)}
        if args.trace:
            import tracing
            import workloads

            metrics, summary, sections = workloads.traced_run(workload, args.seconds)
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracing.write_spans(trace_path, sections, {"environment": env, "summary": summary})
            print(json.dumps({"trace": summary, "spans": str(trace_path.relative_to(ROOT))}))
            # One more checked call, so a traced run always proves its outputs.
            checked.append(workload.call().problems)
            units = PER_LAYER_UNITS
        else:
            metrics, timed, timed_checked = measure(workload, args.seconds)
            checked += timed_checked
            samples = [setup_s] + [set_up_in_child(args) for _ in range(workload.scale.setup_samples - 1)]
            metrics["setup_s"] = statistics.median(samples)
            details.update(timed, setup_samples_s=samples)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = [problems for problems in checked if problems]
    details.update(
        failed_ratio=len(failures) / len(checked), first_failures=failures[:3]
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
