"""Batched trial runs: counter-based randomness, frequency tables, audits.

Trial i always consumes value i of a fixed uniform stream keyed by the
seed, so results are a pure function of (spec, strategy, trials, seed) no
matter how the work is chunked or how many workers chew on it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import COVERAGE_ATOL, ResolutionStrategy
from .experiments import ExperimentSpec
from .program import classify_counts, compile_program

# Fixed chunk size: the work split never depends on the worker count.
CHUNK_TRIALS = 50_000

# Moving-average window for reading fringe visibility off an empirical
# histogram (full windows only, so the edges drop out).
EMPIRICAL_SMOOTHING = 3


@dataclass(frozen=True, slots=True)
class RunConfig:
    n_trials: int
    seed: int
    strategy: ResolutionStrategy = ResolutionStrategy.SEQUENTIAL
    workers: int = 1
    hierarchy_tie_break: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", ResolutionStrategy(self.strategy))
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.seed >= 2**128:
            raise ValueError("seed must be below 2**128")  # the Philox key width
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def trial_uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows [start, stop) of the seed's uniform table, ``width`` values a row.

    The table is the seed's Philox stream cut into rows.  Row ``start``
    begins at value ``start * width``: the counter advances over the whole
    4-value blocks before it and the rest of its block is dropped, so any
    split, at any width, reproduces the bytes of one big draw.
    """
    bg = np.random.Philox(key=seed)
    blocks, skip = divmod(start * width, 4)
    bg.advance(blocks)
    values = np.random.Generator(bg).random(skip + (stop - start) * width)
    return values[skip:].reshape(stop - start, width)


@dataclass(frozen=True, slots=True)
class Histogram:
    bin_centers: tuple[float, ...]
    counts: tuple[int, ...]

    def probabilities(self) -> tuple[float, ...]:
        total = sum(self.counts)
        if total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(c / total for c in self.counts)


@dataclass(frozen=True, slots=True)
class FrequencyTable:
    """Counts per outcome, per condition, per emitter state, plus the screen
    histogram when the arrangement can produce one."""

    n_trials: int
    counts: dict[str, int]
    conditional_counts: dict[str, dict[str, int]]
    emitter_state_counts: dict[str, int]
    histogram: Histogram | None


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    bilking_violations: int
    emitter_state_outcome_mismatches: int
    weight_sum_max_error: float

    def clean(self) -> bool:
        return (
            self.bilking_violations == 0
            and self.emitter_state_outcome_mismatches == 0
            and self.weight_sum_max_error <= COVERAGE_ATOL
        )


def run_experiment(spec: ExperimentSpec, config: RunConfig) -> tuple[FrequencyTable, ConsistencyReport]:
    """Run ``config.n_trials`` trials and aggregate; deterministic in the seed.

    Worker threads split the fixed-size chunks between them and share the
    compiled tree; the merge is an integer sum, so the result is identical
    for any worker count.
    """
    program = compile_program(spec, config.strategy, config.hierarchy_tie_break)
    n = config.n_trials
    spans = [(a, min(a + CHUNK_TRIALS, n)) for a in range(0, n, CHUNK_TRIALS)]

    def count_chunk(span: tuple[int, int]) -> np.ndarray:
        # Looked up at call time, so a module attribute swapped in by a
        # caller (e.g. a tracer) sees every chunk.
        return classify_counts(program, trial_uniforms(config.seed, *span, 1))

    # More threads than chunks or CPUs only adds overhead.  One worker maps in
    # this thread and imports no pool: a thread per call may get a new malloc
    # arena, and peak memory would then vary from run to run.
    workers = min(config.workers, len(spans), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # and logging: only a pool needs them
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_counts = list(pool.map(count_chunk, spans))
    else:
        chunk_counts = map(count_chunk, spans)
    leaf_counts = np.sum(list(chunk_counts), axis=0)

    # Keys come sorted; the tables leave out those no trial reached.
    tally = program.tally(leaf_counts.tolist(), sum)
    cond: dict[str, dict[str, int]] = {}
    for (condition, outcome), c in tally["conditionals"].items():
        if c:
            cond.setdefault(condition, {})[outcome] = c
    outcomes = tally["outcomes"]
    bins = spec.screen.bin_labels() if spec.screen else ()
    histogram = None
    if not outcomes.keys().isdisjoint(bins):
        centers = tuple(float(x) for x in spec.screen.bin_centers())
        histogram = Histogram(centers, tuple(outcomes.get(b, 0) for b in bins))
    table = FrequencyTable(
        n_trials=n,
        counts={k: c for k, c in outcomes.items() if c},
        conditional_counts=cond,
        emitter_state_counts={k: c for k, c in tally["emitter_states"].items() if c},
        histogram=histogram,
    )
    weight_err = max((leaf.weight_sum_error for leaf, c in zip(program.leaves, leaf_counts) if c), default=0.0)
    report = ConsistencyReport(tally["flags"]["bilking"], tally["flags"]["mismatch"], weight_err)
    return table, report


def frequency(table: FrequencyTable, outcome: str) -> tuple[float, float]:
    """Relative frequency of an outcome with its binomial standard error."""
    c = table.counts.get(outcome, 0)
    p = c / table.n_trials
    return p, math.sqrt(p * (1.0 - p) / table.n_trials)


def conditional_frequency(table: FrequencyTable, condition: str, outcome: str) -> tuple[float, float]:
    """Frequency of an outcome among the trials satisfying a condition."""
    bucket = table.conditional_counts.get(condition, {})
    total = sum(bucket.values())
    if total == 0:
        raise ValueError("empty conditional")
    p = bucket.get(outcome, 0) / total
    return p, math.sqrt(p * (1.0 - p) / total)


def visibility(values: Sequence[float], smooth_window: int = 1) -> float:
    """(max - min) / (max + min) of a non-negative profile.

    ``smooth_window`` first applies a centered moving average (odd width,
    full windows only) to tame per-bin shot noise.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 3:
        raise ValueError("visibility needs at least 3 bins")
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ValueError("smooth_window must be odd and positive")
    if not np.any(vals > 0):
        raise ValueError("visibility undefined for an all-zero profile")
    if smooth_window > 1:
        vals = np.convolve(vals, np.ones(smooth_window) / smooth_window, mode="valid")
    hi = float(vals.max())
    lo = float(vals.min())
    return (hi - lo) / (hi + lo)


# -- serialization ------------------------------------------------------------


def run_payload(
    spec: ExperimentSpec, config: RunConfig, table: FrequencyTable, report: ConsistencyReport
) -> dict:
    """JSON-ready summary of one run.

    Deliberately excludes the worker count (and anything else that cannot
    change the numbers), so equal seeds serialize to equal bytes.
    """
    freq = {}
    for outcome, c in table.counts.items():
        p, se = frequency(table, outcome)
        freq[outcome] = {"count": c, "estimate": p, "stderr": se}
    conditionals = {}
    for condition, bucket in table.conditional_counts.items():
        total = sum(bucket.values())
        conditionals[condition] = {
            "count": total,
            "outcomes": {o: {"count": c, "estimate": c / total} for o, c in bucket.items()},
        }
    payload = {
        "experiment": spec.name,
        "strategy": config.strategy.value,
        "trials": table.n_trials,
        "seed": config.seed,
        "hierarchy_tie_break": config.hierarchy_tie_break,
        "frequencies": freq,
        "conditionals": conditionals,
        "emitter_states": {
            label: {"count": c, "estimate": c / table.n_trials}
            for label, c in table.emitter_state_counts.items()
        },
        "consistency": {
            "bilking_violations": report.bilking_violations,
            "emitter_state_outcome_mismatches": report.emitter_state_outcome_mismatches,
            "weight_sum_max_error": report.weight_sum_max_error,
        },
        "histogram": None,
    }
    if table.histogram is not None:
        payload["histogram"] = {
            "bin_centers": list(table.histogram.bin_centers),
            "counts": list(table.histogram.counts),
            "probabilities": list(table.histogram.probabilities()),
        }
    return payload


def histogram_csv(histogram: Histogram) -> str:
    lines = ["bin_center,count,probability"]
    for center, count, prob in zip(
        histogram.bin_centers, histogram.counts, histogram.probabilities()
    ):
        lines.append(f"{center!r},{count},{prob!r}")
    return "\n".join(lines) + "\n"
