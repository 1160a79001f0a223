"""Tests for wave bookkeeping, resolution strategies, and the trial audit."""
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
    ConfirmationWave,
    EmitterState,
    EventKind,
    ExperimentSpec,
    IncipientTransaction,
    LedgerEvent,
    OfferWave,
    SpacetimePoint,
    StrategyError,
    TransactionFailed,
    TransactionSucceeded,
    TrialLedger,
    check_bilking,
    compile_program,
    cuts,
    form_incipient,
    initial_transactions,
    record_emitter_state,
    resolve_global,
    resolve_hierarchy,
    resolve_step,
    respond,
    sort_by_interval,
    spacetime_interval2,
    trigger_satisfied,
)
from tqsim.program import Node
from tqsim.quantum import StateVector, normalize

SQ = math.sqrt(0.5)
ORIGIN = SpacetimePoint(0.0, 0.0)


def half_half_offer():
    state = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
    return OfferWave.from_mapping(ORIGIN, state, {"R": "A", "L": "B"})


def tx(absorber, weight, interval2, t=1.0, channel=None):
    return IncipientTransaction(
        channel or absorber, absorber, weight, interval2, SpacetimePoint(t, 0.0)
    )


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


# -- offer and confirmation waves ---------------------------------------------

def test_offer_wave_targets():
    ow = half_half_offer()
    assert ow.target_of("R") == "A"
    assert ow.channel_of("B") == "L"
    with pytest.raises(KeyError):
        ow.target_of("up")
    with pytest.raises(KeyError, match="not targeted"):
        ow.channel_of("C")


def test_offer_wave_untargeted_channel_allowed():
    state = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
    ow = OfferWave.from_mapping(ORIGIN, state, {"R": "A"})
    assert ow.target_of("L") is None


def test_offer_wave_must_cover_channels():
    state = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
    with pytest.raises(ValueError, match="cover exactly"):
        OfferWave(ORIGIN, state, (("R", "A"),))


def test_offer_wave_rejects_shared_absorber():
    state = StateVector(("R", "L"), (complex(SQ), complex(SQ)))
    with pytest.raises(ValueError, match="at most one channel"):
        OfferWave(ORIGIN, state, (("R", "A"), ("L", "A")))


def test_respond_conjugates_amplitude():
    ow = half_half_offer()
    cw = respond(ow, "A")
    assert cw.channel == "R"
    assert cw.amp == complex(SQ)

    state = StateVector(("A", "B"), (0.6, 0.8j))
    ow2 = OfferWave.from_mapping(ORIGIN, state, {"B": "D"})
    assert respond(ow2, "D").amp == -0.8j


def test_respond_default_location_is_emission():
    ow = half_half_offer()
    assert respond(ow, "A").returned_at == ORIGIN
    at = SpacetimePoint(1.0, 0.5)
    assert respond(ow, "A", at=at).returned_at == at


def test_form_incipient_weight_is_squared_modulus():
    ow = half_half_offer()
    t = form_incipient(ow, respond(ow, "A", at=SpacetimePoint(1.0, 0.5)))
    assert t.absorber == "A"
    assert t.weight == pytest.approx(0.5, abs=1e-12)
    assert t.interval2 == pytest.approx(0.75, abs=1e-12)

    state = StateVector(("A", "B"), (0.6, 0.8j))
    ow2 = OfferWave.from_mapping(ORIGIN, state, {"B": "D"})
    t2 = form_incipient(ow2, respond(ow2, "D", at=SpacetimePoint(1.0, 0.0)))
    assert t2.weight == pytest.approx(0.64, abs=1e-12)


def test_form_incipient_rejects_tampered_confirmation():
    ow = half_half_offer()
    bad = ConfirmationWave("R", "A", 0.9 + 0j, ORIGIN)
    with pytest.raises(ValueError, match="does not conjugate"):
        form_incipient(ow, bad)


def test_form_incipient_geometry_override():
    ow = half_half_offer()
    cw = respond(ow, "A")
    t = form_incipient(ow, cw, geometry=(ORIGIN, SpacetimePoint(2.0, 1.0)))
    assert t.interval2 == 3.0
    assert t.absorbed_at == SpacetimePoint(2.0, 1.0)


# -- single-round strategies --------------------------------------------------

def test_resolve_global_walks_the_cdf():
    txs = [tx("A", 0.36, 1.0), tx("B", 0.64, 4.0)]
    assert resolve_global(txs, FakeRng([0.3])).absorber == "A"
    assert resolve_global(txs, FakeRng([0.36])).absorber == "B"
    assert resolve_global(txs, FakeRng([0.99])).absorber == "B"


def test_resolve_global_single_draw():
    rng = FakeRng([0.1])
    resolve_global([tx("A", 0.5, 1.0), tx("B", 0.5, 2.0)], rng)
    assert rng.unused == 0


def test_resolve_global_needs_complete_coverage():
    with pytest.raises(StrategyError, match="complete absorber coverage"):
        resolve_global([tx("A", 0.5, 1.0)], FakeRng([0.1]))
    with pytest.raises(StrategyError, match="complete absorber coverage"):
        resolve_global([], FakeRng([0.1]))


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
    assert resolve_step(present, 0.0, FakeRng([0.25])).absorber == "A"
    assert resolve_step(present, 0.0, FakeRng([0.5])) is None
    assert resolve_step(present, 0.0, FakeRng([0.75])) is None


def test_resolve_step_late_absorber_is_certain():
    # After a failed 0.5, a candidate holding the remaining 0.5 always wins.
    present = [tx("B", 0.5, 3.0)]
    assert resolve_step(present, 0.5, FakeRng([0.0])).absorber == "B"
    assert resolve_step(present, 0.5, FakeRng([0.999999])).absorber == "B"


def test_resolve_step_splits_remaining_mass():
    present = [tx("B", 0.25, 1.0), tx("C", 0.25, 2.0)]
    assert resolve_step(present, 0.5, FakeRng([0.49])).absorber == "B"
    assert resolve_step(present, 0.5, FakeRng([0.51])).absorber == "C"


def test_resolve_step_exhausted_mass():
    with pytest.raises(StrategyError, match="probability mass exhausted"):
        resolve_step([tx("A", 0.1, 1.0)], 1.0, FakeRng([0.1]))


def test_resolve_step_overweight_candidates():
    with pytest.raises(StrategyError, match="exceeds the remaining"):
        resolve_step([tx("A", 0.6, 1.0)], 0.5, FakeRng([0.1]))


# -- emitter states and triggers ----------------------------------------------

def test_emitter_state_label_sorted_and_deduplicated():
    assert EmitterState.from_ids(["B", "A", "A"]).label == "OW(A,B)"
    assert EmitterState.from_ids(["A"]).label == "OW(A)"


def test_record_emitter_state_reads_cw_events():
    events = (
        LedgerEvent(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
        LedgerEvent(EventKind.SUCCESS, 1.0, absorber="A", channel="R", weight=0.5),
    )
    assert record_emitter_state(events) == EmitterState(("A",))


def test_trigger_satisfied():
    failed = LedgerEvent(EventKind.FAILURE, 1.0, absorber="A", channel="R")
    coin = LedgerEvent(EventKind.COIN, 1.5, label="up")
    won = LedgerEvent(EventKind.SUCCESS, 1.0, absorber="A", channel="R")

    assert trigger_satisfied(Always(), ())
    assert trigger_satisfied(TransactionFailed("A", 1.0), (failed,))
    assert not trigger_satisfied(TransactionFailed("A", 2.0), (failed,))
    assert not trigger_satisfied(TransactionFailed("B", 1.0), (failed,))
    assert trigger_satisfied(TransactionSucceeded("A", 1.0), (won,))
    assert not trigger_satisfied(TransactionSucceeded("A", 1.0), (failed,))
    assert trigger_satisfied(CoinOutcome("up"), (coin,))
    assert not trigger_satisfied(CoinOutcome("down"), (coin,))


# -- bilking audit ------------------------------------------------------------

CONTINGENT = (TransactionFailed("A", 1.0),)


def ledger(events, outcome, emitter=None):
    events = tuple(events)
    state = emitter if emitter is not None else record_emitter_state(events)
    return TrialLedger(events, state, outcome)


def ev(kind, time, **kw):
    return LedgerEvent(kind, time, **kw)


def test_audit_clean_direct_success():
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.SUCCESS, 1.0, absorber="A", channel="R", weight=0.5),
        ],
        "A",
    )
    assert check_bilking(lg, CONTINGENT) == []


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
    lg = ledger(
        [
            ev(EventKind.CW, 1.0, absorber="A", channel="R", weight=0.5),
            ev(EventKind.SUCCESS, 1.0, absorber="A", channel="R", weight=0.5),
        ],
        "A",
        emitter=EmitterState(("A", "B")),
    )
    assert "emitter-state-mismatch:ledger-disagrees-with-cw-record" in check_bilking(lg, CONTINGENT)


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
    ow = OfferWave.from_mapping(ORIGIN, state, {"R": "A", "L": "B"})
    for absorber, channel in (("A", "R"), ("B", "L")):
        cw = respond(ow, absorber)
        assert cw.amp == state.amp(channel).conjugate()
        t = form_incipient(ow, cw)
        assert t.weight == pytest.approx(abs(state.amp(channel)) ** 2, rel=1e-12, abs=1e-15)
        assert t.weight >= 0.0


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_global_resolution_matches_cdf_inversion(raw, u):
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    txs = [tx(f"D{i}", w, float(i + 1)) for i, w in enumerate(weights)]
    winner = resolve_global(txs, FakeRng([u]))
    cum = [math.fsum(t.weight for t in txs[: i + 1]) for i in range(len(txs))]
    expect = min(int(np.searchsorted(cum, u, side="right")), len(txs) - 1)
    assert winner.absorber == f"D{expect}"


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5), st.floats(0.0, 1.0, exclude_max=True))
# A draw on the exact boundary of the residual branch: the naive running sum
# of these weights rounds to just above 0.5, the exact prefix sum is 0.5.
@example(raw=[0.5, 0.99999, 1.0, 0.5], u=0.5)
def test_step_resolution_matches_running_sum(raw, u):
    # Scale so the present candidates hold half the unit mass; the other
    # half must come out as the residual (None) branch.
    total = math.fsum(raw) * 2.0
    present = [tx(f"D{i}", w / total, float(i + 1)) for i, w in enumerate(raw)]
    out = resolve_step(present, 0.0, FakeRng([u]))
    # Each slice ends at the exact (fsum) prefix sum of the weights, so
    # rounding does not build up along the list.
    expect = None
    for i, t in enumerate(present):
        if u < math.fsum(p.weight for p in present[: i + 1]) / 1.0:
            expect = t
            break
    assert out is expect


# -- resolvers against the compiled tree --------------------------------------

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
    if strategy == "sequential":
        got = resolve_step(candidates, failed, FakeRng([u]))
    elif strategy == "global-echo":
        got = resolve_global(candidates, FakeRng([u]))
    else:
        got = resolve_hierarchy(candidates, FakeRng([u]))
    assert (got.absorber if got is not None else None) == tree_pick(node, u)
    assert cut_points == cuts(strategy, candidates, failed)[1]
