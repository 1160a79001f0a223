"""Each tree's ledgers as parent-linked records, audited by one fold.

A compiled leaf's ledger shares its branch's record with its siblings, and
its verdict, conditions and weight-sum error come from an audit folded down
the tree.  Here each leaf is checked against a flat read of its whole record
(``flat_audit.py``), a builder that leaves out the wrong failure, and a
corpus of other builder faults, are checked to be caught at run time, and
compile is checked to grow in proportion to the tree it builds, without
reading a clock.
"""
import json
import math
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flat_audit import flat_audit, flat_fields
from test_cli import chain_doc, wide_screen_doc, write_doc
from test_golden import HAND_BUILT_CASES, _hand_built
from tqsim import (
    BUILTIN_EXPERIMENTS,
    AbsorberConfig,
    ContingencyRule,
    ExperimentSpec,
    PlaceAbsorber,
    ResolutionStrategy,
    RunConfig,
    SpacetimePoint,
    StateVector,
    builtin_spec,
    cli,
    engine,
    load_spec,
    program,
    run_experiment,
)
from tqsim.engine import (
    Always,
    CoinOutcome,
    EventKind,
    LedgerEvent,
    Record,
    StrategyError,
    TransactionFailed,
    TrialLedger,
    check_bilking,
)

STRATEGIES = ("sequential", "global-echo", "hierarchy")


def cascade_spec(channels=8):
    """``channels`` equal-weight channels, one absorber each, absorbing one
    after another at distinct intervals, so every strategy admits it."""
    amp = complex(math.sqrt(1.0 / channels))
    return ExperimentSpec(
        name="cascade",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=StateVector(tuple(f"c{k}" for k in range(channels)), (amp,) * channels),
        absorbers=tuple(
            AbsorberConfig(f"D{t}", f"c{(3 * t) % channels}", SpacetimePoint(float(t), 0.1 * t * (-1) ** t))
            for t in range(1, channels + 1)
        ),
    )


def reused_id_spec():
    """A rule places absorber A again, on the other channel, after A first
    answered.  ``compile_program`` refuses this layout, as ``validate_spec``
    does, so it is grown by the builder itself (:func:`grow`); each of its
    trees resolves A twice on some branch."""
    at = SpacetimePoint
    return ExperimentSpec(
        name="reused-id",
        emission=at(0.0, 0.0),
        initial_state=StateVector(("R", "L"), (complex(math.sqrt(0.5)),) * 2),
        absorbers=(
            AbsorberConfig("A", "R", at(1.0, 0.5)),
            AbsorberConfig("B", "L", at(3.0, -1.0), initially_present=False),
        ),
        rules=(ContingencyRule(Always(), PlaceAbsorber("A", "L", at(2.0, -1.0)), 1.5),),
    )


def grow(spec, strategy, tie_break=True):
    """An uncached tree, grown past the static checks that compile_program
    runs first, so that a layout they refuse can still be audited."""
    return program._Builder(spec, ResolutionStrategy(strategy), tie_break).build()


def specs():
    """(id, spec): the builtins, the hand-built layouts, a layout that
    reuses an absorber id, an 8-channel cascade, a 401-bin screen and a
    1 000-round chain."""
    found = [(name, builtin_spec(name)) for name in BUILTIN_EXPERIMENTS]
    found += sorted(_hand_built().items())
    found.append(("reused-id", reused_id_spec()))
    found.append(("cascade-8", cascade_spec()))
    found.append(("screen-401", load_spec(json.dumps(wide_screen_doc(401)))))
    found.append(("chain-1000", load_spec(json.dumps(chain_doc(1000)))))
    return found


def trees():
    """(id, spec, strategy, tie_break) for every strategy each spec admits."""
    for name, spec in specs():
        pairs = HAND_BUILT_CASES.get(name) or [(s, True) for s in STRATEGIES]
        if name == "chain-1000":
            pairs = [("sequential", True)]
        for strategy, tie_break in pairs:
            yield pytest.param(spec, strategy, tie_break, id=f"{name}-{strategy}-{tie_break}")


@pytest.mark.parametrize("spec,strategy,tie_break", trees())
def test_each_leaf_is_what_a_flat_read_of_its_record_gives(spec, strategy, tie_break):
    try:
        compiled = grow(spec, strategy, tie_break)
    except StrategyError:
        pytest.skip("strategy does not admit the spec")
    triggers = tuple(r.trigger for r in spec.rules)
    for leaf in compiled.leaves:
        events = tuple(leaf.ledger.events)
        assert len(leaf.ledger.events) == len(events)
        flat = TrialLedger(events, leaf.ledger.emitter_state, leaf.ledger.final_outcome)
        verdict = flat_audit(flat, triggers)
        assert list(leaf.violations) == verdict
        assert check_bilking(leaf.ledger, triggers) == verdict  # the fold's findings
        assert check_bilking(flat, triggers) == verdict  # the tuple folded afresh
        coin, conditions, label, error = flat_fields(spec, events)
        assert (leaf.coin_outcome, leaf.conditions, leaf.ledger.emitter_state) == (coin, conditions, label)
        assert leaf.weight_sum_error.hex() == error.hex()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_resolution_repeated_within_a_group_is_flagged(strategy):
    # Under the fixed strategies A's two answers compete in one group, so a
    # winner's record holds the failure of the other A.
    compiled = grow(reused_id_spec(), strategy)
    assert ("duplicate-resolution:A",) in {leaf.violations for leaf in compiled.leaves}
    with pytest.raises(ValueError, match="^rule 0 re-places absorber 'A' that starts present$"):
        program.compile_program.__wrapped__(reused_id_spec(), strategy, True)


def test_each_leaf_stores_only_its_own_events():
    # The 201 bin leaves of dce-keep share one record of the confirmations
    # and one of the failures; each leaf adds its success alone.
    compiled = program.compile_program.__wrapped__(builtin_spec("dce-keep"), "sequential", True)
    records = [leaf.ledger.events for leaf in compiled.leaves]
    assert all(len(r.items) == 1 and r.items[0].kind is EventKind.SUCCESS for r in records)
    groups = {id(r.parent.items) for r in records}
    prefixes = {id(r.parent.parent) for r in records}
    assert (len(groups), len(prefixes)) == (1, 1)
    assert sum(map(len, records)) == 201 * 402


# -- a builder that leaves out the wrong failure --------------------------------

class ShiftedRecord(Record):
    """A record whose maker leaves out the failure after ``skip``, or stops
    after ``stop``: each winner's record then holds its own failure."""

    __slots__ = ()

    def __init__(self, parent, items, stop=None, skip=None):
        skip = None if skip is None else (skip + 1) % len(items)
        super().__init__(parent, items, None if stop is None else stop + 1, skip)


@pytest.mark.parametrize(
    "layout,strategy,leaves",
    [("dce-keep", "sequential", 201), ("dce-keep", "global-echo", 201), ("chain-4", "hierarchy", 4)],
)
def test_a_winner_whose_record_holds_its_own_failure_is_flagged(
    monkeypatch, capsys, tmp_path, layout, strategy, leaves
):
    # A winner's leaf folds only the notable failures in its view, on the
    # premise that its own is left out; the builder checks that premise, so
    # a wrong view still shows as a second resolution of the winner.
    if layout == "chain-4":
        spec, which = load_spec(json.dumps(chain_doc(4))), ["--spec", write_doc(tmp_path, chain_doc(4))]
    else:
        spec, which = builtin_spec(layout), ["--experiment", layout]
    assert not any(leaf.violations for leaf in grow(spec, strategy).leaves)
    monkeypatch.setattr(program, "Record", ShiftedRecord)
    program.compile_program.cache_clear()
    try:
        compiled = program.compile_program.__wrapped__(spec, strategy, True)
        _, report = run_experiment(spec, RunConfig(20_000, 3, strategy))
        code = cli.main(["run", *which, "--trials", "2000", "--seed", "3", "--strategy", strategy])
    finally:
        program.compile_program.cache_clear()
    capsys.readouterr()
    assert len(compiled.leaves) == leaves
    assert all(f"duplicate-resolution:{leaf.outcome}" in leaf.violations for leaf in compiled.leaves)
    assert not report.clean()
    assert code == 2


# -- a corpus of builder faults, each caught by a run-time check --------------

class _Eager:
    """A branch's audit on which every trigger is met."""

    def __init__(self, audit):
        self.audit = audit

    def __getattr__(self, name):
        return getattr(self.audit, name)

    def satisfied(self, trigger):
        return True


def rules_due_early(monkeypatch):
    """The builder makes a rule due before its trigger is on the record.
    The audit's own trigger check reads ``Audit.satisfied``, so only the
    builder's due-rule test is patched."""
    next_event = program._Builder._next_event
    monkeypatch.setattr(
        program._Builder, "_next_event",
        lambda self, walk: next_event(self, SimpleNamespace(audit=_Eager(walk.audit), present=walk.present)),
    )


def terminal_dropped(monkeypatch):
    """A leaf that no success ends is made without its terminal event."""
    leaf = program._Builder._leaf
    monkeypatch.setattr(program._Builder, "_leaf", lambda self, walk, outcome, terminal=None: leaf(self, walk, outcome))


def confirmations_dropped(monkeypatch):
    """An absorption's confirmation waves are offered but never recorded."""
    absorb = program._Builder._absorb_event

    def unrecorded(self, walk, t):
        walk.add = lambda *events: None
        try:
            return absorb(self, walk, t)
        finally:
            del walk.add

    monkeypatch.setattr(program._Builder, "_absorb_event", unrecorded)


def previous_leaf_label(monkeypatch):
    """Each ledger is made with the emitter label of the leaf made before it."""
    labels = []

    def ledger(events, label, outcome):
        labels.append(label)
        return TrialLedger(events, labels[-2] if len(labels) > 1 else label, outcome)

    monkeypatch.setattr(program, "TrialLedger", ledger)


def kinds(leaf):
    return {v.split(":")[0] for v in leaf.violations}


def unconfirmed(leaf):
    """What a record with no confirmation shows: each failure is of an
    absorber that never answered, and a winner is not in the emitter label."""
    shown = {EventKind.FAILURE: "failure-without-cw", EventKind.SUCCESS: "outcome-mismatch"}
    return {shown[e.kind] for e in leaf.ledger.events if e.kind in shown}


@pytest.mark.parametrize(
    "fault,layout,strategy,leaves,expected",
    [
        # The rule removes the screen on the coin's "up" face alone; made due
        # on both faces, it is flagged where the coin showed "down".
        (rules_due_early, "dce-coinflip", "sequential", 4,
         lambda leaf: {"placement-without-prior-trigger"} if leaf.coin_outcome == "down" else set()),
        (terminal_dropped, "dce-keep", "hierarchy", 1, lambda leaf: {"missing-terminal-event"}),
        # With no confirmation on the record the builder also sees no weight
        # offered, so maudlin grows a third leaf, on which B fails too.
        (confirmations_dropped, "maudlin", "sequential", 3, unconfirmed),
        (confirmations_dropped, "dce-keep", "sequential", 201, unconfirmed),
        (previous_leaf_label, "maudlin", "sequential", 2,
         lambda leaf: {"emitter-state-mismatch"} if leaf.index else set()),
    ],
    ids=["rule-due-early", "terminal-dropped", "cw-dropped-maudlin", "cw-dropped-dce-keep", "previous-label"],
)
def test_a_builder_fault_is_caught_at_run_time(
    monkeypatch, capsys, fault, layout, strategy, leaves, expected
):
    spec = builtin_spec(layout)
    assert not any(leaf.violations for leaf in grow(spec, strategy).leaves)
    program.compile_program.cache_clear()
    fault(monkeypatch)
    try:
        compiled = program.compile_program.__wrapped__(spec, strategy, True)
        _, report = run_experiment(spec, RunConfig(20_000, 3, strategy))
        code = cli.main(["run", "--experiment", layout, "--trials", "2000", "--seed", "3", "--strategy", strategy])
    finally:
        program.compile_program.cache_clear()
    capsys.readouterr()
    assert len(compiled.leaves) == leaves
    assert [kinds(leaf) for leaf in compiled.leaves] == [expected(leaf) for leaf in compiled.leaves]
    assert not report.clean()
    assert code == 2


@pytest.mark.parametrize("strategy", ["sequential", "global-echo"])
@pytest.mark.parametrize("bins", [201, 401])
def test_a_screen_compile_folds_each_event_once(monkeypatch, strategy, bins):
    # Each bin's confirmation, and each winner's success: a check that
    # folded every winner's view whole would fold bins**2 events.
    spec = load_spec(json.dumps(wide_screen_doc(bins)))
    step, steps = engine.Audit.step, []

    def counted(audit, e):
        steps.append(None)
        step(audit, e)

    monkeypatch.setattr(engine.Audit, "step", counted)
    program.compile_program.__wrapped__(spec, strategy, True)
    assert len(steps) == 2 * bins


# -- the record ---------------------------------------------------------------

def event(k):
    return LedgerEvent(EventKind.CW, float(k), absorber=f"a{k}", channel=f"c{k}", weight=0.5)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(-1, 6)), max_size=6))
def test_a_record_reads_as_its_segments_joined(segments):
    expected, record, k = [], None, 0
    for size, stop, skip in segments:
        items = tuple(event(k + i) for i in range(size))
        k += size
        stop = min(stop, size)
        skip = skip if 0 <= skip < stop else None
        record = Record(record, items, stop, skip)
        expected += [e for i, e in enumerate(items[:stop]) if i != skip]
    if record is None:
        return
    assert list(record) == expected
    assert len(record) == len(expected)
    assert record == tuple(expected) and hash(record) == hash(tuple(expected))
    assert [record[i] for i in range(len(expected))] == expected
    assert record[1:] == tuple(expected[1:])


def test_a_deep_record_reads_without_recursion():
    record = None
    for k in range(5 * sys.getrecursionlimit()):
        record = Record(record, (event(k),))
    assert len(record) == 5 * sys.getrecursionlimit()
    assert next(iter(record)) == event(0)


# -- the fold against the flat read, on any record ------------------------------

TRIGGERS = [Always(), TransactionFailed("A", 1.0), TransactionFailed("B", 2.0), CoinOutcome("up")]

events = st.builds(
    LedgerEvent,
    st.sampled_from(list(EventKind)),
    st.sampled_from([1.0, 2.0, math.nan]),
    absorber=st.sampled_from(["A", "B", "", None]),
    channel=st.sampled_from(["R", "L", None]),
    label=st.sampled_from(["up", "down", None]),
    weight=st.sampled_from([0.5, 0.25, None]),
    rule_index=st.sampled_from([None, 0, 1, 2, 3, 7]),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(events, max_size=12),
    st.lists(st.sampled_from(TRIGGERS), max_size=4),
    st.sampled_from(["A", "B", "none", "degenerate"]),
    st.sampled_from(["OW()", "OW(A)", "OW(A,B)", "OW(B)"]),
    st.integers(0, 12),
)
def test_the_fold_reports_what_the_flat_read_reports(record, triggers, outcome, emitter, cut):
    triggers = tuple(triggers)
    expected = flat_audit(TrialLedger(tuple(record), emitter, outcome), triggers)
    assert check_bilking(TrialLedger(tuple(record), emitter, outcome), triggers) == expected
    # The same events as a two-segment record, which no builder folded.
    linked = Record(Record(None, tuple(record[:cut])), tuple(record[cut:]))
    assert check_bilking(TrialLedger(linked, emitter, outcome), triggers) == expected


@pytest.mark.parametrize("placed_after", [True, False])
def test_a_long_record_is_audited_in_one_pass(placed_after):
    # 20 000 placements, each checked against the record before it.  Read
    # from the start for each one, the record with no trigger met took 50 s.
    failure = LedgerEvent(EventKind.FAILURE, 1.0, absorber="A", channel="R")
    confirm = LedgerEvent(EventKind.CW, 1.0, absorber="A", channel="R", weight=1.0)
    places = [
        LedgerEvent(EventKind.PLACE, 2.0 + k, absorber=f"P{k}", channel=f"p{k}", rule_index=0)
        for k in range(20_000)
    ]
    terminal = LedgerEvent(EventKind.NO_TRANSACTION, 30_000.0)
    record = [confirm, failure, *places] if placed_after else [confirm, *places, failure]
    ledger = TrialLedger(tuple(record) + (terminal,), "OW(A)", "none")
    triggers = (TransactionFailed("A", 1.0),)
    expected = [] if placed_after else [
        f"placement-without-prior-trigger:rule0@t={2.0 + k}" for k in range(20_000)
    ]
    assert flat_audit(ledger, triggers) == expected
    assert check_bilking(ledger, triggers) == expected


# -- compile grows with the tree ------------------------------------------------

def compile_peak(doc):
    """The peak of memory traced while one uncached tree compiles, less the
    emitter labels its leaves keep: a chain's leaf k names the k absorbers
    that answered it, so those labels alone grow with the square of the
    depth."""
    spec = load_spec(json.dumps(doc))
    tracemalloc.start()
    try:
        compiled = program.compile_program.__wrapped__(spec, "sequential", True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    labels = {id(leaf.ledger.emitter_state): leaf.ledger.emitter_state for leaf in compiled.leaves}
    return peak - sum(map(sys.getsizeof, labels.values()))


@pytest.mark.parametrize("doc", [wide_screen_doc, chain_doc], ids=["screen", "chain"])
def test_compile_memory_grows_linearly(doc):
    # Four times the bins or rounds: the leaves hold about 16 times the
    # ledger events, but the tree holds each event once.  Copied per leaf,
    # the peak grew about 13-fold.
    small, large = (201, 801) if doc is wide_screen_doc else (250, 1000)
    assert compile_peak(doc(large)) < 5 * compile_peak(doc(small))
