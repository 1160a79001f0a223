"""Batched runs: determinism, aggregation, summary statistics, serialization."""
import concurrent.futures
import gc
import itertools
import json
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FakeRng
from test_ledger import cascade_spec
from tqsim import (
    CHUNK_TRIALS,
    EMPIRICAL_SMOOTHING,
    FrequencyTable,
    Histogram,
    ResolutionStrategy,
    RunConfig,
    builtin_spec,
    compile_program,
    conditional_frequency,
    dce_spec,
    frequency,
    histogram_csv,
    maudlin_spec,
    run_experiment,
    run_payload,
    trial_uniforms,
    visibility,
)
from tqsim import cli, montecarlo, program
from tqsim.engine import is_mismatch
from tqsim.program import Leaf, Node, TrialProgram, classify_counts


# -- uniform table ------------------------------------------------------------

def test_uniform_table_rows_do_not_depend_on_chunking():
    whole = trial_uniforms(7, 0, 10, 1)
    parts = np.vstack([trial_uniforms(7, 0, 3, 1), trial_uniforms(7, 3, 10, 1)])
    assert whole.shape == (10, 1)
    assert np.array_equal(whole, parts)


def test_uniform_table_wide_rows():
    # Rows of any width cut the same stream: an 8-value row is 8 one-value rows.
    whole = trial_uniforms(99, 0, 6, 8)
    assert whole.shape == (6, 8)
    assert np.array_equal(whole.ravel(), trial_uniforms(99, 0, 48, 1).ravel())
    tail = trial_uniforms(99, 5, 6, 8)
    assert np.array_equal(whole[5:], tail)


def test_uniform_table_seeds_differ():
    assert not np.array_equal(trial_uniforms(1, 0, 4, 1), trial_uniforms(2, 0, 4, 1))


@settings(max_examples=200, deadline=None)
@given(
    width=st.sampled_from([1, 3, 4]),
    seed=st.integers(0, 2**128 - 1),
    cuts=st.lists(st.integers(0, 41), max_size=4),
)
@example(width=1, seed=7, cuts=[1, 2, 7])
@example(width=3, seed=7, cuts=[5, 6, 30])
def test_uniform_table_splits_at_any_row(width, seed, cuts):
    # A row may start inside a 4-value counter block (start * width % 4 != 0).
    bounds = [0, *sorted(cuts), 41]
    parts = [trial_uniforms(seed, a, b, width) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.vstack(parts), trial_uniforms(seed, 0, 41, width))


# -- batched execution --------------------------------------------------------

def test_batched_counts_match_one_at_a_time_replay():
    program = compile_program(maudlin_spec(), ResolutionStrategy.SEQUENTIAL, True)
    table = trial_uniforms(11, 0, 300, 1)
    counts = classify_counts(program, table)

    replayed = Counter()
    for row in table:
        replayed[program.run(FakeRng(list(row))).outcome] += 1
    by_outcome = Counter()
    for leaf, c in zip(program.leaves, counts):
        by_outcome[leaf.outcome] += int(c)
    assert replayed == by_outcome


def rows_at_the_cuts(program):
    """One-value rows: 0.0, each of the leaves' cut points and the float
    just below it, as far as a draw can take them (below 1)."""
    values = {0.0}
    for cut in program.cdf:
        values |= {cut, float(np.nextafter(cut, 0.0))}
    return np.array(sorted(v for v in values if v < 1.0), dtype=float)[:, None]


def hand_built_program():
    """Twelve leaves on one node, zero-width ones first, in the middle (two
    in a row) and last, so cut points repeat."""
    widths = [0, 1, 2, 1, 0, 0, 3, 1, 4, 2, 2, 0]
    leaves = tuple(
        Leaf(i, f"L{i}", None, None, (), 0.0, (), w / 16) for i, w in enumerate(widths)
    )
    cdf = tuple(itertools.accumulate(w / 16 for w in widths[:-1]))
    return TrialProgram(Node(0, cdf, list(leaves)), leaves, 1, cdf)


def program_with_cuts(n):
    """A one-node tree of n + 1 leaves.  From five cuts on, zero-width
    leaves come first, two in a row in the middle and last, so cut points
    repeat at 0, mid-way and 1."""
    widths = [1 + i % 3 for i in range(n + 1)]
    if n >= 5:
        for i in (0, n // 2, n // 2 + 1, n):
            widths[i] = 0
    total = sum(widths)
    leaves = tuple(
        Leaf(i, f"L{i}", None, None, (), 0.0, (), w / total) for i, w in enumerate(widths)
    )
    # Exact prefix sums, each rounded once, as the builder makes them.
    cdf = tuple(c / total for c in itertools.accumulate(widths[:-1]))
    return TrialProgram(Node(0, cdf, list(leaves)), leaves, 1, cdf)


# Cut counts on both sides of classify_counts' choice between comparing
# and sorting.
CROSSOVER_CUTS = (0, 1, program.COUNT_CUTS_MAX - 1, program.COUNT_CUTS_MAX, program.COUNT_CUTS_MAX + 1, 70)


@pytest.mark.parametrize(
    "make",
    [
        lambda: compile_program(dce_spec("keep"), "sequential"),
        lambda: compile_program(dce_spec("coinflip"), "sequential"),
        lambda: compile_program(builtin_spec("miller"), "sequential"),
        lambda: compile_program(dce_spec("keep"), "hierarchy"),
        hand_built_program,
    ] + [lambda n=n: program_with_cuts(n) for n in CROSSOVER_CUTS],
    ids=["dce-keep", "dce-coinflip", "miller", "dce-keep/hierarchy", "hand-built"]
    + [f"{n}-cuts" for n in CROSSOVER_CUTS],
)
def test_batched_and_single_trials_land_on_the_same_leaf_at_the_cuts(make):
    program = make()
    table = rows_at_the_cuts(program)
    landed = [program.run(FakeRng(list(row))).index for row in table]
    for row, leaf in zip(table, landed):
        counts = classify_counts(program, row[None, :])
        assert np.flatnonzero(counts).tolist() == [leaf], row
    counts = classify_counts(program, table)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(landed, minlength=len(program.leaves)).tolist()
    assert not any(c for c, leaf in zip(counts, program.leaves) if leaf.probability == 0.0)


@pytest.mark.parametrize("spec", [maudlin_spec(), cascade_spec(8)], ids=["maudlin", "cascade-8"])
def test_classification_of_a_narrow_tree_keeps_row_order(spec):
    # A narrow tree counts by comparison; had it sorted, the rows would move.
    tree = compile_program(spec, "sequential")
    table = trial_uniforms(3, 0, CHUNK_TRIALS, 1)
    before = table.copy()
    counts = classify_counts(tree, table)
    assert np.array_equal(table, before)
    assert counts.tolist() == np.bincount(
        np.searchsorted(tree.cdf, before[:, 0], side="right"), minlength=len(tree.leaves)
    ).tolist()


def test_classification_of_an_empty_table():
    for program in (
        compile_program(dce_spec("coinflip"), "sequential"),
        compile_program(dce_spec("keep"), "hierarchy"),
        hand_built_program(),
    ):
        counts = classify_counts(program, np.empty((0, 1)))
        assert counts.dtype == np.int64
        assert counts.tolist() == [0] * len(program.leaves)


def test_classification_sorts_its_table_in_place():
    # A table-sized copy per chunk sets glibc's heap trimming going after
    # every chunk, and each chunk then pays a fresh page fault per 4 KiB.
    program = compile_program(dce_spec("keep"), ResolutionStrategy.SEQUENTIAL, True)
    table = trial_uniforms(3, 0, CHUNK_TRIALS, 1)
    expected = np.sort(table[:, 0])
    tracemalloc.start()
    try:
        counts = classify_counts(program, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes // 10
    assert np.array_equal(table[:, 0], expected)
    assert counts.sum() == CHUNK_TRIALS


def test_classification_frees_its_table():
    # No reference cycle may outlive the call and pin the chunk's table
    # until the cyclic collector happens to run.
    program = compile_program(dce_spec("keep"), ResolutionStrategy.SEQUENTIAL, True)
    table = trial_uniforms(3, 0, 1_000, 1)
    ref = weakref.ref(table)
    gc.disable()
    try:
        classify_counts(program, table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_run_is_deterministic():
    spec = maudlin_spec()
    t1, r1 = run_experiment(spec, RunConfig(5_000, 42))
    t2, r2 = run_experiment(spec, RunConfig(5_000, 42))
    assert t1 == t2
    assert r1 == r2
    t3, _ = run_experiment(spec, RunConfig(5_000, 43))
    assert t3 != t1


def test_worker_count_cannot_change_results():
    # 50001 trials straddles a chunk boundary, so two workers really split.
    spec = maudlin_spec()
    serial, rs = run_experiment(spec, RunConfig(CHUNK_TRIALS + 1, 5, workers=1))
    pooled, rp = run_experiment(spec, RunConfig(CHUNK_TRIALS + 1, 5, workers=2))
    assert serial == pooled
    assert rs == rp


def test_more_threads_than_cores_count_like_one(monkeypatch):
    # Eight threads on eight chunks, switching often: a chunk counted twice
    # or lost would change the table.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    spec = dce_spec("coinflip")
    n = 8 * CHUNK_TRIALS
    serial, _ = run_experiment(spec, RunConfig(n, 5, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, _ = run_experiment(spec, RunConfig(n, 5, workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_pool_never_outnumbers_chunks_or_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_experiment imports the pool at call time; one worker starts none.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    n = 2 * CHUNK_TRIALS + 1  # three chunks
    serial, _ = run_experiment(maudlin_spec(), RunConfig(n, 5, workers=1))
    for cpus, expected in ((8, [3]), (2, [2]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda cpus=cpus: cpus)
        table, _ = run_experiment(maudlin_spec(), RunConfig(n, 5, workers=64))
        assert sizes == expected
        assert table == serial


def test_one_worker_starts_no_thread(monkeypatch):
    # A pool thread per call may get a fresh malloc arena, so peak memory
    # would vary from run to run.
    def refuse(thread):
        raise AssertionError(f"started {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    table, _ = run_experiment(maudlin_spec(), RunConfig(2 * CHUNK_TRIALS + 1, 5, workers=1))
    assert table.n_trials == 2 * CHUNK_TRIALS + 1


def test_maudlin_table_invariants():
    table, report = run_experiment(maudlin_spec(), RunConfig(20_000, 3))
    assert sum(table.counts.values()) == 20_000
    assert set(table.counts) == {"A", "B"}
    # B wins exactly on the trials where A failed.
    assert table.conditional_counts["failed:A"] == {"B": table.counts["B"]}
    assert table.conditional_counts["succeeded:A"] == {"A": table.counts["A"]}
    assert table.emitter_state_counts == {
        "OW(A)": table.counts["A"],
        "OW(A,B)": table.counts["B"],
    }
    assert table.histogram is None
    assert report.clean()
    assert report.weight_sum_max_error <= 1e-9


def test_kept_screen_histogram_collects_every_trial():
    table, report = run_experiment(dce_spec("keep"), RunConfig(2_000, 9))
    assert table.histogram is not None
    assert sum(table.histogram.counts) == 2_000
    assert len(table.histogram.counts) == 201
    assert report.clean()


def test_coinflip_histogram_only_counts_kept_screen_trials():
    table, _ = run_experiment(dce_spec("coinflip"), RunConfig(4_000, 21))
    down = sum(table.conditional_counts["coin:down"].values())
    assert sum(table.histogram.counts) == down
    up_outcomes = set(table.conditional_counts["coin:up"])
    assert up_outcomes == {"TA", "TB"}


@pytest.mark.parametrize(
    "flags",
    [
        {"A": ["outcome-mismatch:recorded=A,won=B"]},
        {"B": ["placement-without-prior-trigger:rule0@t=2.0"]},
        {"A": ["emitter-state-mismatch:test", "multiple-success"]},
        {"A": ["outcome-mismatch:test"], "B": ["duplicate-resolution:B"]},
    ],
    ids=["mismatch", "bilking", "both-on-one-leaf", "one-each"],
)
def test_audit_counts_the_trials_on_flagged_leaves(monkeypatch, capsys, flags):
    # Leaves are audited once, at compile time, so the cache must not hand
    # back clean leaves compiled earlier, nor keep the flagged ones.
    original = program.check_bilking

    def flagged(ledger, triggers=()):
        return original(ledger, triggers) + flags.get(ledger.final_outcome, [])

    monkeypatch.setattr(program, "check_bilking", flagged)
    program.compile_program.cache_clear()
    try:
        table, report = run_experiment(maudlin_spec(), RunConfig(20_000, 3))
        code = cli.main(["run", "--experiment", "maudlin", "--trials", "2000", "--seed", "3"])
    finally:
        program.compile_program.cache_clear()
    capsys.readouterr()

    def trials_flagged(kind):
        return sum(table.counts[o] for o, found in flags.items() if any(map(kind, found)))

    assert report.emitter_state_outcome_mismatches == trials_flagged(is_mismatch)
    assert report.bilking_violations == trials_flagged(lambda v: not is_mismatch(v))
    assert not report.clean()
    assert code == 2


def test_run_config_validation():
    with pytest.raises(ValueError, match="n_trials"):
        RunConfig(0, 1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(10, -1)
    with pytest.raises(ValueError, match=r"^seed must be below 2\*\*128$"):
        RunConfig(10, 2**128)
    with pytest.raises(ValueError, match="workers"):
        RunConfig(10, 1, workers=0)
    cfg = RunConfig(10, 1, strategy="hierarchy")
    assert cfg.strategy is ResolutionStrategy.HIERARCHY
    assert cfg.hierarchy_tie_break is True


def test_largest_seed_still_runs():
    table, report = run_experiment(maudlin_spec(), RunConfig(10, 2**128 - 1))
    assert sum(table.counts.values()) == 10
    assert report.clean()


# -- summary statistics -------------------------------------------------------

def table_of(counts, conditionals=None, emitters=None, histogram=None):
    return FrequencyTable(
        n_trials=sum(counts.values()),
        counts=counts,
        conditional_counts=conditionals or {},
        emitter_state_counts=emitters or {},
        histogram=histogram,
    )


def test_frequency_and_stderr():
    table = table_of({"A": 75, "B": 25})
    p, se = frequency(table, "A")
    assert p == 0.75
    assert se == pytest.approx((0.75 * 0.25 / 100) ** 0.5, abs=1e-15)
    assert frequency(table, "missing") == (0.0, 0.0)


def test_conditional_frequency():
    table = table_of({"A": 10}, conditionals={"failed:X": {"A": 8, "B": 2}})
    p, se = conditional_frequency(table, "failed:X", "A")
    assert p == 0.8
    assert se == pytest.approx((0.8 * 0.2 / 10) ** 0.5, abs=1e-15)
    with pytest.raises(ValueError, match="empty conditional"):
        conditional_frequency(table, "failed:Y", "A")


def test_visibility_extremes():
    assert visibility([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert visibility([0.0, 1.0, 0.0, 1.0, 0.0]) == 1.0


def test_visibility_smoothing():
    # Full 3-wide windows of an alternating comb average to 1/3 and 2/3.
    v = visibility([0.0, 1.0, 0.0, 1.0, 0.0], smooth_window=EMPIRICAL_SMOOTHING)
    assert v == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_visibility_validation():
    with pytest.raises(ValueError, match="at least 3 bins"):
        visibility([1.0, 2.0])
    with pytest.raises(ValueError, match="must be odd"):
        visibility([1.0, 2.0, 3.0], smooth_window=2)
    with pytest.raises(ValueError, match="all-zero"):
        visibility([0.0, 0.0, 0.0])


def test_histogram_probabilities():
    h = Histogram((-1.0, 0.0, 1.0), (1, 2, 1))
    assert h.probabilities() == (0.25, 0.5, 0.25)
    empty = Histogram((-1.0, 0.0, 1.0), (0, 0, 0))
    assert empty.probabilities() == (0.0, 0.0, 0.0)


# -- serialization ------------------------------------------------------------

def test_payload_shape_and_workers_excluded():
    spec = maudlin_spec()
    config = RunConfig(2_000, 11, workers=4)
    table, report = run_experiment(spec, config)
    payload = run_payload(spec, config, table, report)
    assert set(payload) == {
        "experiment",
        "strategy",
        "trials",
        "seed",
        "hierarchy_tie_break",
        "frequencies",
        "conditionals",
        "emitter_states",
        "consistency",
        "histogram",
    }
    assert payload["experiment"] == "maudlin"
    assert payload["strategy"] == "sequential"
    assert payload["histogram"] is None
    assert "workers" not in json.dumps(payload)
    # Everything in the payload must be plain JSON.
    assert json.loads(json.dumps(payload)) == payload


def test_payload_histogram_block():
    spec = dce_spec("keep")
    config = RunConfig(1_000, 2)
    table, report = run_experiment(spec, config)
    payload = run_payload(spec, config, table, report)
    h = payload["histogram"]
    assert len(h["bin_centers"]) == 201
    assert sum(h["counts"]) == 1_000
    assert sum(h["probabilities"]) == pytest.approx(1.0, abs=1e-9)


def test_histogram_csv_format():
    h = Histogram((-1.0, 0.0, 1.0), (1, 2, 1))
    text = histogram_csv(h)
    lines = text.splitlines()
    assert lines[0] == "bin_center,count,probability"
    assert lines[1] == "-1.0,1,0.25"
    assert lines[2] == "0.0,2,0.5"
    assert text.endswith("\n")
