"""Compiled decision trees: one per (spec, strategy, tie-break) triple.

Each internal node splits [0, 1) at precomputed cut points, and a branch's
probability is the product of its slices' widths; leaves carry the canonical
trial record (ledger, outcome, audit results) shared by every trial landing
there, and their probabilities double as an exact enumerator for
cross-checks.  A trial draws one uniform and inverts it through the leaves'
cumulative probabilities (inverse-transform sampling), so ``TrialProgram.run``
and montecarlo's chunk counter agree draw for draw, whatever the tree's depth.

A tree stores each of its events once.  Each leaf's ledger is a
parent-linked :class:`~tqsim.engine.Record`: a node stores the events it
adds, a resolution node its candidates' failures once for all its children,
and a winner's leaf adds only its success.  The audit is a fold
(:class:`~tqsim.engine.Audit`) carried down the tree with each branch, so a
node checks only what it adds, and a leaf's verdict, conditions, emitter
label and weight-sum error are read off the fold where the branch ends.  A
resolution node makes each winner's leaf on its own overlay of that fold.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Sequence

from . import experiments as xp
from .engine import (
    DEGENERATE,
    MISMATCHES,
    NO_OUTCOME,
    Always,
    Audit,
    EventKind,
    IncipientTransaction,
    LedgerEvent,
    Record,
    ResolutionStrategy,
    SpacetimePoint,
    StrategyError,
    TrialLedger,
    Violation,
    check_bilking,
    confirm,
    cuts,
    exact_units,
    rounded,
    split_unit,
)

# Kinds of the next event on a branch; on equal times the smaller kind goes
# first (the coin, then scheduled actions, then absorptions).
_COIN, _ACTIONS, _ABSORB = 0, 1, 2

# Ledger events one tree's leaves may hold together, counted as if each
# leaf held its whole record.  The tree stores each event once, but a screen
# leaf's record still reads as the branch's shared prefix plus every other
# bin's failure, so the count grows with the square of the bin count (and of
# a chain's depth); past this bound the tree is refused.
MAX_LEDGER_EVENTS = 2_000_000


@dataclass(frozen=True, slots=True, eq=False)
class Leaf:
    """The whole record of every trial landing here: outcome, coin face,
    ledger, audit result and the branch's exact probability."""

    index: int
    outcome: str
    coin_outcome: str | None
    ledger: TrialLedger
    conditions: tuple[str, ...]
    weight_sum_error: float
    violations: tuple[Violation, ...]
    probability: float


@dataclass(frozen=True, slots=True, eq=False)
class Node:
    draw: int
    cuts: tuple[float, ...]
    children: list["Node | Leaf"]


@dataclass(frozen=True, eq=False)
class TrialProgram:
    """A compiled tree.  ``draws`` is its depth in nodes, and ``cdf`` holds
    the leaves' cut points on [0, 1): the exact prefix sums of
    ``leaf.probability`` in leaf order, each rounded once to a float, the
    last one dropped.  Leaf i holds ``cdf[i-1] <= u < cdf[i]``, so a leaf
    narrower than about one ulp of its place in the cdf (about 1e-16) can
    never be drawn."""

    root: "Node | Leaf"
    leaves: tuple[Leaf, ...]
    draws: int
    cdf: tuple[float, ...]

    def run(self, rng) -> Leaf:
        return self.leaves[bisect.bisect_right(self.cdf, rng.random())]

    @cached_property
    def census(self) -> dict[str, dict]:
        """Each tally field's keys, sorted, and each key's leaf indices: the
        outcomes, (condition, outcome) pairs, emitter states, and the
        ``bilking`` and ``mismatch`` flags (a violation's kind in or out of
        :data:`~tqsim.engine.MISMATCHES`)."""
        fields: dict[str, dict] = {"outcomes": {}, "conditionals": {}, "emitter_states": {}}
        fields["flags"] = {"bilking": [], "mismatch": []}
        for leaf in self.leaves:
            mismatch = [v.kind in MISMATCHES for v in leaf.violations]
            keyed = [("outcomes", leaf.outcome), ("emitter_states", leaf.ledger.emitter_state)]
            keyed += [("conditionals", (c, leaf.outcome)) for c in leaf.conditions]
            keyed += [("flags", "bilking")] * (not all(mismatch)) + [("flags", "mismatch")] * any(mismatch)
            for name, key in keyed:
                fields[name].setdefault(key, []).append(leaf.index)
        return {name: dict(sorted(keys.items())) for name, keys in fields.items()}

    def tally(self, weights: Sequence, total: Callable = math.fsum) -> dict[str, dict]:
        """Each census key's ``total`` over its leaves' ``weights`` (one per
        leaf): trial counts give a run's tables, probabilities their law."""
        return {
            name: {key: total([weights[i] for i in idx]) for key, idx in keys.items()}
            for name, keys in self.census.items()
        }


@dataclass
class _Walk:
    """Mutable branch state while the tree is being grown.  The branch's
    record is ``record``, its events up to its last split, then ``fresh``,
    those since; ``audit`` folds each event as :meth:`add` appends it, and
    rules fire, the coin shows its face, and the spent channels and leaf
    conditions are read, off that fold."""

    time: float
    present: dict[str, tuple[str, SpacetimePoint]]
    audit: Audit
    record: Record | None = None
    fresh: list[LedgerEvent] = field(default_factory=list)
    draws: int = 0
    prob: float = 1.0
    # Every candidate confirmed on this branch; the fixed strategies let
    # them all compete in one round once the branch has run its course.
    offered: tuple[IncipientTransaction, ...] = ()

    def add(self, *events: LedgerEvent) -> None:
        self.fresh += events
        self.audit.fold(events)

    def freeze(self) -> Record | None:
        """The branch's record so far, as one parent-linked sequence."""
        if self.fresh:
            self.record, self.fresh = Record(self.record, tuple(self.fresh)), []
        return self.record

    def clone(self, prob: float) -> "_Walk":
        """A child walk of probability ``prob``, one draw deeper, going on
        from this branch's record with tables of its own."""
        return _Walk(self.time, dict(self.present), self.audit.fork(), self.freeze(), [],
                     self.draws + 1, prob, self.offered)


class _Builder:
    def __init__(self, spec: xp.ExperimentSpec, strategy: ResolutionStrategy, tie_break: bool):
        self.spec = spec
        self.strategy = strategy
        self.tie_break = tie_break
        self.bin_channels = spec.bin_channels()
        self.state_channels = set(spec.initial_state.labels)
        self.triggers = tuple(r.trigger for r in spec.rules)
        self.leaves: list[Leaf] = []
        self.ledger_events = 0
        self.max_draws = 0

    def build(self) -> TrialProgram:
        if self.strategy is not ResolutionStrategy.SEQUENTIAL and any(
            not isinstance(t, Always) for t in self.triggers
        ):
            raise StrategyError("strategy requires fixed absorber set")
        # A frame is (walk, the children list its result fills, slot): a
        # branch still to grow.  Frames are pushed last first and a winner's
        # leaf is made at once, so leaves come out depth first in cut order.
        root = [None]
        frames = [(self._initial_walk(), root, 0)]
        while frames:
            walk, children, slot = frames.pop()
            children[slot] = self._grow(walk, frames)
        sums = accumulate(exact_units(leaf.probability) for leaf in self.leaves[:-1])
        cdf = [rounded(total) for total in sums]
        return TrialProgram(root[0], tuple(self.leaves), self.max_draws, tuple(cdf))

    def _initial_walk(self) -> _Walk:
        present = {a.id: (a.channel, a.position) for a in self.spec.absorbers if a.initially_present}
        # A screen bin's confirmation takes up the whole emitted state.
        state = self.spec.initial_state
        shares = {ch: abs(a) ** 2 for ch, a in zip(state.labels, state.amps)}
        return _Walk(self.spec.emission.t, present, Audit(self.triggers, shares, self.bin_channels))

    # -- event-by-event growth ------------------------------------------

    def _next_event(self, walk: _Walk) -> tuple[float, int, list[int]] | None:
        """(time, kind, rules firing then) of the earliest event still to come
        on the branch, or None when it has run its course.  A rule is due
        once its trigger is on the branch's record and it has not fired: each
        fired rule leaves one apparatus event carrying its index."""
        rules, audit = self.spec.rules, walk.audit
        candidates = []
        if self.spec.coin is not None and audit.coin is None:
            candidates.append((self.spec.coin.flip_time, _COIN, []))
        due = [
            i for i, rule in enumerate(rules)
            if i not in audit.fired and audit.satisfied(rule.trigger)
        ]
        if due:
            at = min(rules[i].time for i in due)
            candidates.append((at, _ACTIONS, [i for i in due if rules[i].time == at]))
        if walk.present:
            candidates.append((min(pos.t for _, pos in walk.present.values()), _ABSORB, []))
        # Kinds differ, so the rule lists are never compared.
        return min(candidates) if candidates else None

    def _grow(self, walk: _Walk, frames: list) -> Node | Leaf:
        """Run the branch event by event up to its first split or its leaf.
        Sequential resolution settles each absorption as it happens; the
        fixed strategies resolve once, over everything offered, after the
        last event."""
        sequential = self.strategy is ResolutionStrategy.SEQUENTIAL
        while (event := self._next_event(walk)) is not None:
            t, kind, due = event
            if kind == _COIN:
                coin = self.spec.coin
                points, _ = split_unit(coin.weights)  # checked to sum to 1: no residual
                walk.time = t
                node, probs = _node(walk, points)
                faces = [walk.clone(prob) for prob in probs]
                for face, label in zip(faces, coin.labels):
                    face.add(LedgerEvent(EventKind.COIN, t, label=label))
                frames.extend(reversed([(face, node.children, i) for i, face in enumerate(faces)]))
                return node
            if kind == _ACTIONS:
                self._apply_actions_at(walk, t, due)
                continue
            # Every candidate offered before these has failed on this branch.
            burned = walk.audit.offered
            if (txs := self._absorb_event(walk, t)) and sequential:
                return self._resolve(walk, cuts(self.strategy, txs, rounded(burned)), frames)
        if sequential:
            return self._leaf(walk, NO_OUTCOME, terminal=EventKind.NO_TRANSACTION)
        split = cuts(self.strategy, walk.offered, tie_break=self.tie_break)
        if split == DEGENERATE:
            return self._leaf(walk, DEGENERATE, terminal=EventKind.DEGENERATE)
        return self._resolve(walk, split, frames)

    def _resolve(self, walk: _Walk, split: tuple, frames: list) -> Node | Leaf:
        """Branch on which candidate wins, plus (sequential only) the residual
        branch on which every candidate fails and the walk goes on."""
        ordered, points, residual = split
        if len(ordered) == 1 and not residual:
            return self._success(walk, ordered[0])
        hierarchy = self.strategy is ResolutionStrategy.HIERARCHY
        # One failure event per candidate, stored once for every child: the
        # hierarchy walk stops at its winner, so only nearer candidates were
        # tried and failed, and any other winner's record skips its own.
        fails = tuple(
            LedgerEvent(EventKind.FAILURE, tx.absorbed_at.t, absorber=tx.absorber, channel=tx.channel)
            for tx in ordered
        )
        notable = walk.audit.notable(fails)
        # Each absorber's failures, by index, to count a winner's own in its view.
        own = {}
        for j, e in enumerate(fails):
            own.setdefault(e.absorber, []).append(j)
        prefix = walk.freeze()
        node, probs = _node(walk, points)
        for i, tx in enumerate(ordered):
            view = Record(prefix, fails, stop=i) if hierarchy else Record(prefix, fails, skip=i)
            # Each overlay is audited before the next is made.  It folds the
            # notable failures in the view (see Audit.notable), or all of them
            # if one is the winner's own: its success then reads as a duplicate.
            won = _Walk(walk.time, {}, walk.audit.fork(overlay=True), view, [], walk.draws + 1, probs[i])
            skipped = view.skip is not None and fails[view.skip].absorber == tx.absorber
            if bisect.bisect_left(own[tx.absorber], view.stop) > skipped:
                won.audit.fold(view.own())
            else:
                shown = notable[: bisect.bisect_left(notable, view.stop)]
                won.audit.fold(fails[j] for j in shown if j != view.skip)
            node.children[i] = self._success(won, tx)
        if residual:
            walk.record, walk.prob, walk.draws = Record(prefix, fails), probs[-1], walk.draws + 1
            walk.audit.fold(fails)
            frames.append((walk, node.children, len(ordered)))
        return node

    def _apply_actions_at(self, walk: _Walk, t: float, due: list[int]) -> None:
        """Fire the due rules, in rule-index order, at time ``t``."""
        for ridx in due:
            action = self.spec.rules[ridx].action
            if isinstance(action, xp.RemoveScreen):
                for aid in [a for a, (ch, _) in walk.present.items() if ch in self.bin_channels]:
                    del walk.present[aid]
                walk.add(LedgerEvent(EventKind.REMOVE_SCREEN, t, rule_index=ridx))
                continue
            if isinstance(action, xp.PlaceAbsorber):
                if any(ch == action.channel for ch, _ in walk.present.values()):
                    raise ValueError(f"channel {action.channel!r} already has a live absorber")
                aid, kind = action.absorber, EventKind.PLACE
            else:
                for old in [a for a, (ch, _) in walk.present.items() if ch == action.channel]:
                    del walk.present[old]
                aid, kind = action.new_absorber, EventKind.DIVERT
            walk.present[aid] = (action.channel, action.position)
            walk.add(LedgerEvent(kind, t, absorber=aid, channel=action.channel, rule_index=ridx))
        walk.time = t

    def _absorb_event(self, walk: _Walk, t: float) -> list[IncipientTransaction]:
        """Confirmation waves for every live absorber whose time has come."""
        # Channels whose component was taken up on the branch: those that
        # confirmed, or every channel of the emitted state once a bin has.
        spent = self.state_channels if walk.audit.untaken is None else walk.audit.channels
        responding = []
        for aid, (ch, pos) in list(walk.present.items()):
            if pos.t != t:
                continue
            # Every responder leaves the walk; one whose channel's component
            # was already taken up is shadowed (e.g. a telescope behind a
            # still-standing screen) and sends no confirmation.
            del walk.present[aid]
            if ch not in spent:
                responding.append((aid, ch, pos))
        screen_event = any(ch in self.bin_channels for _, ch, _pos in responding)
        if screen_event and any(ch not in self.bin_channels for _, ch, _pos in responding):
            raise ValueError("screen and direct absorbers share an absorption event")
        spec = self.spec
        basis = xp.screen_amplitudes(spec.screen, spec.initial_state) if screen_event else spec.initial_state
        txs = confirm(spec.emission, basis, responding)
        walk.add(*[
            LedgerEvent(EventKind.CW, t, absorber=tx.absorber, channel=tx.channel, weight=tx.weight)
            for tx in txs
        ])
        walk.offered += tuple(txs)
        walk.time = t
        return txs

    def _success(self, walk: _Walk, winner: IncipientTransaction) -> Leaf:
        walk.add(
            LedgerEvent(EventKind.SUCCESS, winner.absorbed_at.t, absorber=winner.absorber,
                        channel=winner.channel, weight=winner.weight)
        )
        return self._leaf(walk, winner.absorber)

    def _leaf(self, walk: _Walk, outcome: str, terminal: EventKind | None = None) -> Leaf:
        if terminal is not None:
            walk.add(LedgerEvent(terminal, walk.time))
        events, audit = walk.freeze(), walk.audit
        self.ledger_events += len(events)
        if self.ledger_events > MAX_LEDGER_EVENTS:
            raise ValueError(
                f"tree too large: its leaves would hold more than {MAX_LEDGER_EVENTS}"
                " ledger events (MAX_LEDGER_EVENTS)"
            )
        ledger = TrialLedger(events, audit.label, outcome)
        offered, unoffered = audit.weights
        leaf = Leaf(
            index=len(self.leaves),
            outcome=outcome,
            coin_outcome=audit.coin,
            ledger=ledger,
            conditions=audit.conditions,
            weight_sum_error=abs(offered + unoffered - 1.0),
            violations=tuple(check_bilking(ledger, self.triggers, audit)),
            probability=walk.prob,
        )
        self.leaves.append(leaf)
        self.max_draws = max(self.max_draws, walk.draws)
        return leaf


def _node(walk: _Walk, points: tuple[float, ...]) -> tuple[Node, list[float]]:
    """A node splitting [0, 1) at ``points`` below ``walk``, and each of its
    slices' probabilities on the branch."""
    bounds = (0.0, *points, 1.0)
    node = Node(walk.draws, points, [None] * (len(points) + 1))
    return node, [walk.prob * (hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _build(
    spec: xp.ExperimentSpec, strategy: ResolutionStrategy, tie_break: bool = True
) -> TrialProgram:
    # Before the builder, which formats a label per screen bin.
    if problems := xp.spec_problems(spec):
        raise xp.SpecError(*problems)
    return _Builder(spec, ResolutionStrategy(strategy), bool(tie_break)).build()


_cached_build = lru_cache(maxsize=64)(_build)


def compile_program(
    spec: xp.ExperimentSpec,
    strategy: ResolutionStrategy | str,
    tie_break: bool = True,
) -> TrialProgram:
    """Grow (and cache) the decision tree for one spec/strategy pairing.

    A spec with a problem :func:`~tqsim.experiments.spec_problems` finds is
    refused with a :class:`~tqsim.experiments.SpecError` naming the first.
    The arguments are normalized before the cache lookup, so every call
    form of the same triple shares one entry and one tree.
    """
    return _cached_build(spec, ResolutionStrategy(strategy), bool(tie_break))


# The lru_cache interface, with ``__wrapped__`` an uncached compile.
compile_program.cache_clear = _cached_build.cache_clear
compile_program.cache_info = _cached_build.cache_info
compile_program.__wrapped__ = _build


def outcome_distribution(
    spec: xp.ExperimentSpec,
    strategy: ResolutionStrategy | str,
    tie_break: bool = True,
) -> dict[str, float]:
    """Exact outcome probabilities by summing leaf reach probabilities."""
    program = compile_program(spec, ResolutionStrategy(strategy), tie_break)
    return program.tally([leaf.probability for leaf in program.leaves])["outcomes"]
