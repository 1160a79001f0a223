"""The three workloads: their set-up, one timed call, and the traced run.

Importing this module imports tqsim, so the benchmark imports it inside the
timed set-up.  A *call* is one round of ``run_experiment`` calls on the bulk
workloads and one fresh ``python -m tqsim.cli run`` process on ``cli-cold``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import specs
import tracing
from tqsim import cli, experiments, montecarlo, program
from tqsim.engine import ResolutionStrategy

SEQ = ResolutionStrategy.SEQUENTIAL
ECHO = ResolutionStrategy.GLOBAL_ECHO
HIER = ResolutionStrategy.HIERARCHY

# A CLI process that runs this long is taken to hang and counts as failed.
CLI_TIMEOUT_S = 60.0

# Bound before tracing can swap compile_program for a wrapper.
clear_compile_cache = program.compile_program.cache_clear


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``TINY`` keeps the benchmark's own tests fast."""

    bulk_trials: int = 500_000
    cli_trials: int = 200_000
    wide_bins: int = specs.WIDE_BINS
    setup_samples: int = 3
    import_samples: int = 3


FULL = Scale()
TINY = Scale(bulk_trials=20_000, cli_trials=20_000, wide_bins=41, setup_samples=1, import_samples=1)


@dataclass(frozen=True)
class Call:
    spec: experiments.ExperimentSpec
    strategy: ResolutionStrategy
    trials: int
    workers: int
    seed: int

    def config(self, workers: int | None = None) -> montecarlo.RunConfig:
        return montecarlo.RunConfig(
            self.trials, self.seed, self.strategy, self.workers if workers is None else workers
        )

    def argv(self, spec_path: Path) -> list[str]:
        return [
            "run", "--spec", str(spec_path), "--trials", str(self.trials), "--seed", str(self.seed),
            "--strategy", self.strategy.value, "--workers", str(self.workers),
        ]


@dataclass
class CallResult:
    seconds: float
    problems: list[str]
    peak_rss_kb: int = 0


class Workload:
    """Specs, exact laws and run seeds of one workload, all from its seed.

    Construction is the set-up: it builds every spec, checks it (validate
    and round-trip), compiles every spec/strategy pair cold, and reads off
    the exact law each call is checked against.
    """

    name = ""
    workers = 1
    in_process = True  # calls run in this process (and its pool workers)
    # Untimed calls before timing: in-process, the first calls pay for heap
    # growth (minor page faults) that later calls do not.
    warmup_calls = 0

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.scale = scale
        self.work_dir = work_dir
        clear_compile_cache()
        self.pairs = self._pairs()
        self.docs = {}
        self.laws = {}
        for spec, strategy in self.pairs:
            if spec.name not in self.docs:
                self.docs[spec.name] = specs.checked_document(spec)
            # Called as run_experiment calls it: the compile cache keys on
            # the argument form, so (spec, strategy) alone would miss.
            program.compile_program(spec, strategy, True)
            self.laws[spec.name, strategy] = program.outcome_distribution(spec, strategy)

    def _pairs(self) -> list[tuple[experiments.ExperimentSpec, ResolutionStrategy]]:
        raise NotImplementedError

    @property
    def trials(self) -> int:
        return self.scale.bulk_trials

    def next_calls(self) -> list[Call]:
        return [
            Call(spec, strategy, self.trials, self.workers, self.rng.randrange(2**31))
            for spec, strategy in self.pairs
        ]

    def call(self) -> CallResult:
        """One timed round of ``run_experiment`` calls, then its checks."""
        calls = self.next_calls()
        outputs = []
        start = time.perf_counter()
        for c in calls:
            try:
                outputs.append(montecarlo.run_experiment(c.spec, c.config()))
            except Exception as e:  # a raising call is a failed call, not a crash
                outputs.append(e)
        seconds = time.perf_counter() - start
        problems = []
        for c, out in zip(calls, outputs):
            problems += self.check(c, out)
        return CallResult(seconds, problems)

    def check(self, c: Call, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"{c.spec.name}/{c.strategy.value}: raised {out!r}"]
        return [
            f"{c.spec.name}/{c.strategy.value}: {p}"
            for p in checks.table_problems(*out, self.laws[c.spec.name, c.strategy])
        ]

    def traced_round(self, tracer: tracing.Tracer) -> int:
        """The round's calls in-process at ``workers=1``, with payload
        serialization; returns the payload bytes."""
        size = 0
        for c in self.next_calls():
            config = c.config(workers=1)
            table, report = montecarlo.run_experiment(c.spec, config)
            payload = montecarlo.run_payload(c.spec, config, table, report)
            with tracer.span("json.dumps"):
                size += len(json.dumps(payload, indent=2, sort_keys=True)) + 1
        return size


class BulkNarrow(Workload):
    """maudlin and miller (sequential) plus a generated 8-channel cascade
    under all three strategies: few children per node, so uniform
    generation and per-chunk work dominate."""

    name = "bulk-narrow"
    warmup_calls = 20

    def _pairs(self):
        cascade = specs.cascade_spec(self.rng)
        return [
            (experiments.maudlin_spec(), SEQ),
            (experiments.miller_spec(), SEQ),
            (cascade, SEQ),
            (cascade, ECHO),
            (cascade, HIER),
        ]


class BulkFringe(Workload):
    """dce-keep (sequential, global-echo) and dce-coinflip (sequential) on
    two workers: 201-203 leaves, so classification dominates, and the only
    workload that goes through the fork pool.  dce-keep under hierarchy is
    left out: it compiles to a single 0-draw leaf."""

    name = "bulk-fringe"
    workers = 2
    warmup_calls = 3

    def _pairs(self):
        keep = experiments.dce_spec(experiments.DceMode.ALWAYS_KEEP)
        return [(keep, SEQ), (keep, ECHO), (experiments.dce_coinflip_spec(), SEQ)]

    def check(self, c: Call, out) -> list[str]:
        problems = super().check(c, out)
        if problems:
            return problems
        # Outside the timed region: the pool must not change a single byte.
        reference = montecarlo.run_experiment(c.spec, c.config(workers=1))
        if _payload_bytes(c, *out) != _payload_bytes(c, *reference):
            problems.append(f"{c.spec.name}/{c.strategy.value}: payload differs from workers=1")
        return problems


class CliCold(Workload):
    """Fresh ``sim run`` processes on a generated 401-bin dce-keep document:
    every call pays the import, a cold validate/compile of a wide tree, a
    cache-hit run and a 401-bin payload."""

    name = "cli-cold"
    in_process = False

    def __init__(self, seed: int, scale: Scale, work_dir: Path) -> None:
        super().__init__(seed, scale, work_dir)
        (spec, _), = self.pairs
        self.bins = spec.screen.bins
        self.spec_path = work_dir / f"{spec.name}.json"
        self.spec_path.write_text(self.docs[spec.name])

    def _pairs(self):
        return [(specs.wide_screen_spec(self.rng, self.scale.wide_bins), SEQ)]

    @property
    def trials(self) -> int:
        return self.scale.cli_trials

    def call(self) -> CallResult:
        (c,) = self.next_calls()
        argv = [sys.executable, "-m", "tqsim.cli", *c.argv(self.spec_path)]
        out_path = self.work_dir / "cli-stdout.json"
        with open(out_path, "wb") as out, open(self.work_dir / "cli-stderr.txt", "wb") as err:
            seconds, status, rss_kb = _run_process(argv, out, err, CLI_TIMEOUT_S)
        if status is None:
            return CallResult(seconds, [f"timed out after {CLI_TIMEOUT_S} s"], rss_kb)
        if status != 0:
            return CallResult(seconds, [f"exit status {status}"], rss_kb)
        law = self.laws[c.spec.name, c.strategy]
        problems = checks.payload_problems(out_path.read_text(), c.trials, self.bins, law)
        return CallResult(seconds, problems, rss_kb)

    def traced_round(self, tracer: tracing.Tracer) -> int:
        """One in-process ``cli.main`` on a cold compile cache."""
        (c,) = self.next_calls()
        clear_compile_cache()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), tracer.span("cli.main"):
            status = cli.main(c.argv(self.spec_path))
        if status != 0:
            raise RuntimeError(f"in-process cli.main exited {status}")
        return len(stdout.getvalue())


WORKLOADS = {w.name: w for w in (BulkNarrow, BulkFringe, CliCold)}


def _payload_bytes(c: Call, table, report) -> bytes:
    payload = montecarlo.run_payload(c.spec, c.config(), table, report)
    return json.dumps(payload, indent=2, sort_keys=True).encode()


def _run_process(argv: list[str], stdout, stderr, timeout: float) -> tuple[float, int | None, int]:
    """Run ``argv`` to completion; return (wall s, exit status or None on
    timeout, peak RSS in KiB of that process alone).

    ``os.wait4`` reaps the child and reads its own resource usage; a child
    still running at ``timeout`` is killed and reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(_src_dir()))
    env.pop("SIM_DEFAULT_WORKERS", None)
    done: dict[str, object] = {}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env)

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        done["end"] = time.perf_counter()
        done["status"] = os.waitstatus_to_exitcode(status)
        done["rss"] = usage.ru_maxrss

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    proc.returncode = done["status"]  # reaped by wait4, not by Popen
    seconds = done["end"] - start
    return seconds, None if timed_out else done["status"], done["rss"]


def _src_dir() -> Path:
    return Path(program.__file__).resolve().parent.parent


# -- traced run -----------------------------------------------------------


def _median_process_seconds(argv: list[str], samples: int) -> float:
    times = []
    for _ in range(samples):
        seconds, status, _ = _run_process(argv, subprocess.DEVNULL, subprocess.DEVNULL, CLI_TIMEOUT_S)
        if status != 0:
            raise RuntimeError(f"{argv} exited {status}")
        times.append(seconds)
    return statistics.median(times)


def traced_run(workload: Workload, seconds: float) -> tuple[dict[str, float], dict, dict]:
    """Per-layer metrics, a self-time summary, and the spans by section.

    Sections, each with its own tracer:
      cold    -- every document of the workload loaded, validated and
                 compiled under each of its strategies on an empty cache;
      rounds  -- the workload's calls in-process for seconds/2, after as
                 long untraced, which gives the tracing overhead;
      cli     -- the bulk workloads' calls once more through ``cli.main``.
    """
    cold = tracing.Tracer()
    clear_compile_cache()
    programs = []
    with tracing.patched(cold):
        for doc in workload.docs.values():
            experiments.validate_spec(experiments.load_spec(doc, validate=False))
        for spec, strategy in workload.pairs:
            programs.append(program.compile_program(spec, strategy, True))

    def timed_rounds(tracer: tracing.Tracer) -> tuple[list[float], int]:
        times, size = [], 0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds / 2:
            t0 = time.perf_counter()
            size = workload.traced_round(tracer)
            times.append(time.perf_counter() - t0)
        return times, size

    untraced, _ = timed_rounds(tracing.Tracer())
    rounds = tracing.Tracer()
    with tracing.patched(rounds):
        traced, payload_bytes = timed_rounds(rounds)
    n = len(traced)

    cli_tracer = rounds
    if workload.in_process:
        cli_tracer = tracing.Tracer()
        with tracing.patched(cli_tracer):
            for c in workload.next_calls():
                path = workload.work_dir / f"{c.spec.name}.json"
                path.write_text(workload.docs[c.spec.name])
                with contextlib.redirect_stdout(io.StringIO()), cli_tracer.span("cli.main"):
                    cli.main(c.argv(path))
        cli_rounds = 1
    else:
        cli_rounds = n

    # The same calls at workers=1 and workers=2, alternating, untraced.
    pool = {1: 0.0, 2: 0.0}
    for _ in range(3):
        for workers in (1, 2):
            for c in workload.next_calls():
                t0 = time.perf_counter()
                montecarlo.run_experiment(c.spec, c.config(workers=workers))
                pool[workers] += time.perf_counter() - t0

    import_s = _median_process_seconds(
        [sys.executable, "-c", "import tqsim.cli"], workload.scale.import_samples
    )

    cold_total, cold_self, cold_counts = cold.totals(), cold.self_times(), cold.counts()
    r_total, r_self, r_counts = rounds.totals(), rounds.self_times(), rounds.counts()
    cli_self = cli_tracer.self_times()
    per = lambda d, key: d.get(key, 0.0) / n  # noqa: E731 -- per traced round
    classify_s = per(r_total, "program.classify_counts")
    uniforms_s = per(r_total, "montecarlo.trial_uniforms")
    rows = r_counts.get("program.classify_counts.rows", 0) / n
    draws = r_counts.get("program.classify_counts.draws", 0) / n
    padded = r_counts.get("montecarlo.trial_uniforms.values", 0) / n
    metrics = {
        "cli.import_s": import_s,
        "cli.main_self_s": cli_self.get("cli.main", 0.0) / cli_rounds,
        "experiments.load_spec_s": cold_total.get("experiments.load_spec", 0.0),
        "experiments.validate_self_s": cold_self.get("experiments.validate_spec", 0.0),
        "program.compile_s": cold_total.get("program.compile_program", 0.0),
        "program.leaves": sum(len(p.leaves) for p in programs),
        "program.nodes": sum(_count_nodes(p.root) for p in programs),
        "program.draws": sum(p.draws for p in programs),
        "program.ledger_events": sum(len(leaf.ledger.events) for p in programs for leaf in p.leaves),
        "engine.check_bilking_s": cold_total.get("engine.check_bilking", 0.0),
        "engine.audited_events": cold_counts.get("engine.check_bilking.events", 0),
        "program.classify_s": classify_s,
        "program.classify_rows_per_s": rows / classify_s if classify_s else 0.0,
        "montecarlo.uniforms_s": uniforms_s,
        "montecarlo.uniform_bytes": padded * 8,
        "montecarlo.draws": draws,
        "montecarlo.padded_draws": padded,
        "montecarlo.draw_use_ratio": draws / padded if padded else 0.0,
        "montecarlo.run_self_s": per(r_self, "montecarlo.run_experiment"),
        "montecarlo.pool_speedup": pool[1] / pool[2],
        "montecarlo.run_payload_s": per(r_total, "montecarlo.run_payload") + per(r_total, "json.dumps"),
        "montecarlo.payload_bytes": payload_bytes,
        "trace.overhead_ratio": statistics.mean(traced) / statistics.mean(untraced),
    }
    # Self time per layer in one traced round, to show which layer each
    # workload stresses; compile is reported with the audit it runs.
    call_self = {name: t / n for name, t in r_self.items()}
    call_self["program.compile_program + engine.check_bilking"] = call_self.pop(
        "program.compile_program", 0.0
    ) + call_self.pop("engine.check_bilking", 0.0)
    summary = {
        "traced_rounds": n,
        "untraced_rounds": len(untraced),
        "self_s_per_round": call_self,
        "largest": max(call_self, key=call_self.get),
        "uniforms_share_of_chunk_time": uniforms_s / (uniforms_s + classify_s),
        "pool_seconds": {f"workers={w}": s for w, s in pool.items()},
    }
    return metrics, summary, {"cold": cold, "rounds": rounds, "cli": cli_tracer}


def _count_nodes(node) -> int:
    children = getattr(node, "children", ())
    return 1 + sum(_count_nodes(child) for child in children)
