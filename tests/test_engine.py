"""Tests for candidate formation, the split rule, resolution, and the trial audit."""
import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import FakeRng
from tqsim import (
    DEGENERATE,
    NO_OUTCOME,
    AbsorberConfig,
    Always,
    CoinOutcome,
    EventKind,
    ExperimentSpec,
    IncipientTransaction,
    LedgerEvent,
    SpacetimePoint,
    StrategyError,
    TransactionFailed,
    TrialLedger,
    check_bilking,
    compile_program,
    confirm,
    cuts,
    emitter_label,
    initial_transactions,
    resolve_hierarchy,
    sort_by_interval,
    spacetime_interval2,
    trigger_satisfied,
)
from tqsim.engine import split_unit
from tqsim.program import Node
from tqsim.quantum import StateVector, normalize

SQ = math.sqrt(0.5)
ORIGIN = SpacetimePoint(0.0, 0.0)


def half_half_state():
    return StateVector(("R", "L"), (complex(SQ), complex(SQ)))


def tx(absorber, weight, interval2, t=1.0, channel=None):
    return IncipientTransaction(
        channel or absorber, absorber, weight, interval2, SpacetimePoint(t, 0.0)
    )


def owner(split, u):
    """Absorber whose slice of a :func:`cuts` split holds ``u``, or None for
    the residual slice (no transaction)."""
    ordered, points, _residual = split
    i = bisect.bisect_right(points, u)
    return ordered[i].absorber if i < len(ordered) else None


def step(present, burned, u):
    """Winner of one sequential round drawing ``u`` after ``burned`` failed."""
    return owner(cuts("sequential", present, burned), u)


# -- geometry -----------------------------------------------------------------

def test_interval2_timelike():
    assert spacetime_interval2(ORIGIN, SpacetimePoint(5.0, 3.0)) == 16.0


def test_interval2_lightlike_is_zero():
    assert spacetime_interval2(ORIGIN, SpacetimePoint(5.0, 5.0)) == 0.0


def test_interval2_coincident_points():
    assert spacetime_interval2(ORIGIN, ORIGIN) == 0.0


def test_interval2_rejects_backwards_absorption():
    with pytest.raises(ValueError, match="absorption precedes emission"):
        spacetime_interval2(SpacetimePoint(1.0, 0.0), SpacetimePoint(0.5, 0.0))


# -- confirmation -------------------------------------------------------------

def test_offer_wave_targets():
    # Each responder answers the channel it sits on, whatever order it comes in.
    at = SpacetimePoint(1.0, 0.5)
    txs = confirm(ORIGIN, half_half_state(), [("B", "L", at), ("A", "R", at)])
    assert [(t.channel, t.absorber) for t in txs] == [("R", "A"), ("L", "B")]


def test_offer_wave_untargeted_channel_allowed():
    # A channel no absorber answers, or one the offer leaves empty, forms no
    # candidate.
    at = SpacetimePoint(1.0, 0.5)
    assert [t.absorber for t in confirm(ORIGIN, half_half_state(), [("A", "R", at)])] == ["A"]
    state = StateVector(("R", "M", "L"), (0.6, 0.0, 0.8))
    txs = confirm(ORIGIN, state, [("B", "L", at), ("Z", "M", at), ("A", "R", at)])
    assert [t.absorber for t in txs] == ["A", "B"]


def test_form_incipient_weight_is_squared_modulus():
    at = SpacetimePoint(1.0, 0.5)
    (t,) = confirm(ORIGIN, half_half_state(), [("A", "R", at)])
    assert (t.channel, t.absorber, t.absorbed_at) == ("R", "A", at)
    assert t.weight == pytest.approx(0.5, abs=1e-12)
    assert t.interval2 == pytest.approx(0.75, abs=1e-12)

    state = StateVector(("A", "B"), (0.6, 0.8j))
    (t2,) = confirm(ORIGIN, state, [("D", "B", SpacetimePoint(1.0, 0.0))])
    assert t2.weight == pytest.approx(0.64, abs=1e-12)


def test_form_incipient_geometry_override():
    # The interval runs from the emission to the responder's absorption point.
    at = SpacetimePoint(2.0, 1.0)
    (t,) = confirm(ORIGIN, half_half_state(), [("A", "R", at)])
    assert t.interval2 == 3.0
    assert t.absorbed_at == at


# -- single-round strategies --------------------------------------------------

def test_resolve_global_walks_the_cdf():
    txs = [tx("A", 0.36, 1.0), tx("B", 0.64, 4.0)]
    split = cuts("global-echo", txs)
    assert split == (tuple(txs), (0.36,), 0.0)
    assert owner(split, 0.3) == "A"
    assert owner(split, 0.36) == "B"
    assert owner(split, 0.99) == "B"


def test_resolve_global_single_draw():
    program = compile_program(competition([0.5, 0.5], 0.0, 0.0), "global-echo")
    assert program.draws == 1
    assert [leaf.outcome for leaf in program.leaves] == ["D0", "D1"]


def test_resolve_global_needs_complete_coverage():
    with pytest.raises(StrategyError, match="complete absorber coverage"):
        cuts("global-echo", [tx("A", 0.5, 1.0)])
    with pytest.raises(StrategyError, match="complete absorber coverage"):
        cuts("global-echo", [])


def test_sort_by_interval_orders_ascending():
    far = tx("B", 0.5, 16.0, t=5.0)
    near = tx("A", 0.5, 0.75, t=1.0)
    assert sort_by_interval([far, near]) == [near, far]


def test_sort_by_interval_time_breaks_equal_intervals():
    early = tx("A", 0.5, 0.0, t=1.0)
    late = tx("B", 0.5, 0.0, t=3.0)
    assert sort_by_interval([late, early]) == [early, late]
    assert sort_by_interval([late, early], tie_break=False) == DEGENERATE


def test_sort_by_interval_unbreakable_tie():
    a = tx("A", 0.5, 0.0, t=2.0)
    b = tx("B", 0.5, 0.0, t=2.0)
    assert sort_by_interval([a, b]) == DEGENERATE


def test_resolve_hierarchy_prefers_near_interval():
    near = tx("A", 0.25, 0.75, t=1.0)
    far = tx("B", 0.75, 3.0, t=2.0)
    # Near candidate holds the first 0.25 of the unit interval.
    assert resolve_hierarchy([far, near], FakeRng([0.2])).absorber == "A"
    assert resolve_hierarchy([far, near], FakeRng([0.25])).absorber == "B"


def test_resolve_hierarchy_reports_degenerate_ordering():
    a = tx("A", 0.5, 0.0, t=1.0)
    b = tx("B", 0.5, 0.0, t=3.0)
    assert resolve_hierarchy([a, b], FakeRng([0.5]), tie_break=False) == DEGENERATE
    # With the time tie-break the same layout resolves.
    assert resolve_hierarchy([a, b], FakeRng([0.7])).absorber == "B"


def test_resolve_hierarchy_needs_complete_coverage():
    with pytest.raises(StrategyError, match="complete absorber coverage"):
        resolve_hierarchy([tx("A", 0.7, 1.0)], FakeRng([0.1]))


# -- stepwise resolution ------------------------------------------------------

def test_resolve_step_partial_coverage():
    present = [tx("A", 0.5, 0.75)]
    assert step(present, 0.0, 0.25) == "A"
    assert step(present, 0.0, 0.5) is None
    assert step(present, 0.0, 0.75) is None


def test_resolve_step_late_absorber_is_certain():
    # After a failed 0.5, a candidate holding the remaining 0.5 always wins.
    present = [tx("B", 0.5, 3.0)]
    assert step(present, 0.5, 0.0) == "B"
    assert step(present, 0.5, 0.999999) == "B"


def test_resolve_step_splits_remaining_mass():
    present = [tx("B", 0.25, 1.0), tx("C", 0.25, 2.0)]
    assert step(present, 0.5, 0.49) == "B"
    assert step(present, 0.5, 0.51) == "C"


def test_resolve_step_exhausted_mass():
    with pytest.raises(StrategyError, match="probability mass exhausted"):
        cuts("sequential", [tx("A", 0.1, 1.0)], 1.0)


def test_resolve_step_overweight_candidates():
    with pytest.raises(StrategyError, match="exceeds the remaining"):
        cuts("sequential", [tx("A", 0.6, 1.0)], 0.5)


# -- emitter states and triggers ----------------------------------------------

def test_emitter_state_label_sorted_and_deduplicated():
    assert emitter_label(["B", "A", "A"]) == "OW(A,B)"
    assert emitter_label(["A"]) == "OW(A)"
    assert emitter_label([]) == "OW()"


def test_trigger_satisfied():
    failed = LedgerEvent(EventKind.FAILURE, 1.0, absorber="A", channel="R")
    coin = LedgerEvent(EventKind.COIN, 1.5, label="up")
    won = LedgerEvent(EventKind.SUCCESS, 1.0, absorber="A", channel="R")

    assert trigger_satisfied(Always(), ())
    assert trigger_satisfied(TransactionFailed("A", 1.0), (failed,))
    assert not trigger_satisfied(TransactionFailed("A", 2.0), (failed,))
    assert not trigger_satisfied(TransactionFailed("B", 1.0), (failed,))
    assert not trigger_satisfied(TransactionFailed("A", 1.0), (won,))
    assert trigger_satisfied(CoinOutcome("up"), (coin,))
    assert not trigger_satisfied(CoinOutcome("down"), (coin,))


# -- bilking audit ------------------------------------------------------------

CONTINGENT = (TransactionFailed("A", 1.0),)


def ledger(events, outcome, emitter=None):
    """A ledger whose emitter state, unless given, names its CW events' absorbers."""
    events = tuple(events)
    if emitter is None:
        emitter = emitter_label(e.absorber for e in events if e.kind is EventKind.CW)
    return TrialLedger(events, emitter, outcome)


def ev(kind, time, **kw):
    return LedgerEvent(kind, time, **kw)


DIRECT_SUCCESS = (
    ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
    ev(EventKind.SUCCESS, 1.0, absorber="A", channel="R", weight=0.5),
)


def test_audit_clean_direct_success():
    assert check_bilking(ledger(DIRECT_SUCCESS, "A", emitter="OW(A)"), CONTINGENT) == []


def test_audit_clean_contingent_success():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.FAILURE, 1.0, absorber="A", channel="R"),
            ev(EventKind.PLACE, 2.0, absorber="B", channel="L", rule_index=0),
            ev(EventKind.CW, 2.0, absorber="B", channel="L", weight=0.5),
            ev(EventKind.SUCCESS, 2.0, absorber="B", channel="L", weight=0.5),
        ],
        "B",
    )
    assert check_bilking(lg, CONTINGENT) == []


def test_audit_flags_placement_without_trigger():
    # B appears without A's failure anywhere on the record.
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.PLACE, 2.0, absorber="B", channel="L", rule_index=0),
            ev(EventKind.CW, 2.0, absorber="B", channel="L", weight=0.5),
            ev(EventKind.SUCCESS, 2.0, absorber="B", channel="L", weight=0.5),
        ],
        "B",
    )
    assert check_bilking(lg, CONTINGENT) == ["placement-without-prior-trigger:rule0@t=2.0"]


def test_audit_flags_unconfirmed_winner():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.SUCCESS, 2.0, absorber="B", channel="L", weight=0.5),
        ],
        "B",
    )
    assert check_bilking(lg, CONTINGENT) == ["outcome-mismatch:B-not-in-OW(A)"]


def test_audit_flags_multiple_success():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.CW, 2.0, absorber="B", channel="L", weight=0.5),
            ev(EventKind.SUCCESS, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.SUCCESS, 2.0, absorber="B", channel="L", weight=0.5),
        ],
        "A",
    )
    assert "multiple-success" in check_bilking(lg, CONTINGENT)


def test_audit_flags_duplicate_resolution():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.FAILURE, 1.0, absorber="A", channel="R"),
            ev(EventKind.FAILURE, 1.0, absorber="A", channel="R"),
            ev(EventKind.NO_TRANSACTION, 1.0),
        ],
        NO_OUTCOME,
    )
    assert "duplicate-resolution:A" in check_bilking(lg, CONTINGENT)


def test_audit_flags_recorded_outcome_other_than_the_winner():
    lg = ledger(DIRECT_SUCCESS, "B")
    assert check_bilking(lg, CONTINGENT) == ["outcome-mismatch:recorded=B,won=A"]


def test_audit_flags_outcome_with_no_success():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.FAILURE, 1.0, absorber="A", channel="R"),
        ],
        "A",
    )
    out = check_bilking(lg, CONTINGENT)
    assert "outcome-mismatch:no-success-but-outcome=A" in out
    assert "missing-terminal-event" in out


def test_audit_flags_missing_terminal_event():
    lg = ledger([ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5)], NO_OUTCOME)
    assert check_bilking(lg, CONTINGENT) == ["missing-terminal-event"]


def test_audit_flags_emitter_state_mismatch():
    # A's confirmation is on the record, so a state naming B too, or no one, disagrees.
    for emitter in ("OW(A,B)", "OW()"):
        lg = ledger(DIRECT_SUCCESS, "A", emitter=emitter)
        assert check_bilking(lg, CONTINGENT) == [
            "emitter-state-mismatch:ledger-disagrees-with-cw-record"
        ]


def test_audit_flags_rule_index_out_of_range():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.PLACE, 2.0, absorber="B", channel="L", rule_index=3),
            ev(EventKind.CW, 2.0, absorber="B", channel="L", weight=0.5),
            ev(EventKind.SUCCESS, 2.0, absorber="B", channel="L", weight=0.5),
        ],
        "B",
    )
    assert check_bilking(lg, CONTINGENT) == ["rule-index-out-of-range:3"]


def test_audit_flags_failure_without_confirmation():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.FAILURE, 2.0, absorber="B", channel="L"),
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
        ],
        NO_OUTCOME,
    )
    assert "failure-without-cw:B" in check_bilking(lg, CONTINGENT)


# -- property-based checks ----------------------------------------------------

complex_amps = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).map(lambda p: complex(*p))


@given(complex_amps, complex_amps)
def test_confirmation_always_conjugates(a, b):
    assume(abs(a) ** 2 + abs(b) ** 2 > 1e-6)
    state = normalize(StateVector(("R", "L"), (a, b)))
    at = SpacetimePoint(1.0, 0.0)
    txs = confirm(ORIGIN, state, [("A", "R", at), ("B", "L", at)])
    assert [t.channel for t in txs] == [ch for ch, amp in zip(state.labels, state.amps) if amp != 0]
    for t in txs:
        amp = state.amp(t.channel)
        # Offer times its conjugate confirmation: exactly re^2 + im^2.
        assert t.weight == amp.real * amp.real + amp.imag * amp.imag
        assert t.weight == pytest.approx(abs(amp) ** 2, rel=1e-12, abs=1e-15)
        assert t.weight >= 0.0


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_global_resolution_matches_cdf_inversion(raw, u):
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    txs = [tx(f"D{i}", w, float(i + 1)) for i, w in enumerate(weights)]
    cum = [math.fsum(t.weight for t in txs[: i + 1]) for i in range(len(txs))]
    expect = min(int(np.searchsorted(cum, u, side="right")), len(txs) - 1)
    assert owner(cuts("global-echo", txs), u) == f"D{expect}"


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5), st.floats(0.0, 1.0, exclude_max=True))
# A draw on the exact boundary of the residual branch: the naive running sum
# of these weights rounds to just above 0.5, the exact prefix sum is 0.5.
@example(raw=[0.5, 0.99999, 1.0, 0.5], u=0.5)
def test_step_resolution_matches_running_sum(raw, u):
    # Scale so the present candidates hold half the unit mass; the other
    # half must come out as the residual (None) branch.
    total = math.fsum(raw) * 2.0
    present = [tx(f"D{i}", w / total, float(i + 1)) for i, w in enumerate(raw)]
    # Each slice ends at the exact (fsum) prefix sum of the weights, so
    # rounding does not build up along the list.
    expect = None
    for i, t in enumerate(present):
        if u < math.fsum(p.weight for p in present[: i + 1]) / 1.0:
            expect = t.absorber
            break
    assert step(present, 0.0, u) == expect


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), st.floats(0.5, 2.0))
def test_split_unit_points_are_rounded_exact_prefix_sums(weights, mass):
    points, residual = split_unit(weights, mass)
    assert len(points) == len(weights) - (not residual)
    assert list(points) == [math.fsum(weights[: i + 1]) / mass for i in range(len(points))]


# -- the split rule against the compiled tree ---------------------------------

def competition(weights, burned, void):
    """Candidates D0.. with Born weights ``weights``, all absorbing at t=2 at
    distinct intervals; an absorber X at t=1 with weight ``burned`` fails
    first (when nonzero); ``void`` is weight on a channel nobody absorbs."""
    channels = [("X", burned, SpacetimePoint(1.0, 0.0))] if burned else []
    channels += [(f"D{i}", w, SpacetimePoint(2.0, 0.1 * i)) for i, w in enumerate(weights)]
    absorbers = tuple(AbsorberConfig(aid, aid, at) for aid, _, at in channels)
    if void:
        channels.append(("void", void, None))
    labels = tuple(ch for ch, _, _ in channels)
    state = normalize(StateVector(labels, tuple(complex(math.sqrt(w)) for _, w, _ in channels)))
    return ExperimentSpec("competition", ORIGIN, state, absorbers)


def tree_pick(node, u):
    """Outcome reached by drawing ``u`` at ``node``, or None for no transaction."""
    if isinstance(node, Node):
        node = node.children[bisect.bisect_right(node.cuts, u)]
    return None if node.outcome == NO_OUTCOME else node.outcome


@pytest.mark.parametrize("strategy", ["sequential", "global-echo", "hierarchy"])
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
    # Residuals (relative to the unburned mass) straddling RESIDUAL_SNAP.
    st.sampled_from([0.0, 5e-10, 9.99e-10, 1.001e-9, 1e-6, 0.3]),
    st.data(),
)
def test_resolvers_pick_what_the_tree_picks(strategy, raw, burned, residual, data):
    if strategy != "sequential":
        burned, residual = 0.0, 0.0  # the single-round strategies need full coverage
    mass = 1.0 - burned
    weights = [w / math.fsum(raw) * mass * (1.0 - residual) for w in raw]
    spec = competition(weights, burned, mass * residual)
    program = compile_program(spec, strategy)
    txs = {tx.absorber: tx for tx in initial_transactions(spec)}
    failed = txs.pop("X").weight if burned else 0.0
    node = program.root.children[-1] if burned else program.root  # the branch where X failed
    cut_points = node.cuts if isinstance(node, Node) else ()
    draws = [st.floats(0.0, 1.0, exclude_max=True), st.floats(1.0 - 1e-9, 1.0, exclude_max=True)]
    if cut_points:  # exactly on a cut, or the float just below it
        draws.append(st.sampled_from([c for p in cut_points for c in (p, math.nextafter(p, 0.0))]))
    u = data.draw(st.one_of(*draws))
    candidates = [txs[f"D{i}"] for i in range(len(weights))]
    split = cuts(strategy, candidates, failed)
    assert owner(split, u) == tree_pick(node, u)
    assert cut_points == split[1]
    if strategy == "hierarchy":
        assert resolve_hierarchy(candidates, FakeRng([u])).absorber == tree_pick(node, u)
