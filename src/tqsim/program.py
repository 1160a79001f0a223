"""Compiled decision trees: one per (spec, strategy, tie-break) triple.

Each internal node splits [0, 1) at precomputed cut points, and a branch's
probability is the product of its slices' widths; leaves carry the canonical
trial record (ledger, outcome, audit results) shared by every trial landing
there, and their probabilities double as an exact enumerator for
cross-checks.  A trial draws one uniform and inverts it through the leaves'
cumulative probabilities (inverse-transform sampling), so the single-trial
API and the batched runner agree draw for draw, whatever the tree's depth.

A tree stores each of its events once.  Each leaf's ledger is a
parent-linked :class:`~tqsim.engine.Record`: a node stores the events it
adds, a resolution node its candidates' failures once for all its children,
and a winner's leaf adds only its success.  The audit is a fold
(:class:`~tqsim.engine.Audit`) carried down the tree with each branch, so a
node checks only what it adds, and a leaf's verdict, conditions, emitter
label and weight-sum error are read off the fold where the branch ends.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import experiments as xp
from .engine import (
    DEGENERATE,
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
    TransactionFailed,
    TrialLedger,
    check_bilking,
    cuts,
    exact_units,
    is_mismatch,
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
    violations: tuple[str, ...]
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
        ``bilking`` and ``mismatch`` flags (see :func:`is_mismatch`)."""
        fields: dict[str, dict] = {"outcomes": {}, "conditionals": {}, "emitter_states": {}}
        fields["flags"] = {"bilking": [], "mismatch": []}
        for leaf in self.leaves:
            mismatch = [is_mismatch(v) for v in leaf.violations]
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

    def join(self, view: Record, notable: list[int] | None) -> None:
        """Go on from a resolution node's failures, ``view``.  A branch that
        grows on folds each of them; a winner's leaf, which adds only the
        winner's success after them, folds just the ``notable`` ones in its
        view (see :meth:`Audit.notable`), on an overlay of the audit it
        shares with its siblings."""
        self.record = view
        if notable is None:
            self.audit.fold(view.own())
        else:
            self.audit = self.audit.fork(overlay=True)
            shown = notable[: bisect.bisect_left(notable, view.stop)]
            self.audit.fold(view.items[j] for j in shown if j != view.skip)

    def freeze(self) -> Record | None:
        """The branch's record so far, as one parent-linked sequence."""
        if self.fresh:
            self.record, self.fresh = Record(self.record, tuple(self.fresh)), []
        return self.record

    def clone(self, copy: bool) -> "_Walk":
        """A child walk from this branch's record.  Unless ``copy``, it shares
        this walk's tables: only the child grown last may change them, and
        a winner's leaf never does."""
        present, audit = (dict(self.present), self.audit.fork()) if copy else (self.present, self.audit)
        return _Walk(self.time, present, audit, self.freeze(), [], self.draws, self.prob, self.offered)


class _Builder:
    def __init__(self, spec: xp.ExperimentSpec, strategy: ResolutionStrategy, tie_break: bool):
        self.spec = spec
        self.strategy = strategy
        self.tie_break = tie_break
        self.bin_channels = spec.bin_channels()
        # Built at the first screen absorption, so it is refused there, and kept.
        self.screen_basis = cache(partial(xp.screen_amplitudes, spec.screen, spec.initial_state))
        self.state_channels = set(spec.initial_state.labels)
        self.triggers = tuple(r.trigger for r in spec.rules)
        self.leaves: list[Leaf] = []
        self.ledger_events = 0
        self.max_draws = 0

    def build(self) -> TrialProgram:
        self._check_spec()
        if self.strategy is not ResolutionStrategy.SEQUENTIAL and any(
            not isinstance(t, Always) for t in self.triggers
        ):
            raise StrategyError("strategy requires fixed absorber set")
        # A frame is (walk, (failures it goes on from, notable ones) or None,
        # winner or None, the children list its result fills, slot).
        # Children are pushed last first, so leaves come out depth first in
        # cut order, and the child that may change its parent's tables is
        # grown after its siblings.
        root = [None]
        frames = [(self._initial_walk(), None, None, root, 0)]
        while frames:
            walk, failures, winner, children, slot = frames.pop()
            if failures is not None:
                walk.join(*failures)
            children[slot] = self._grow(walk, frames) if winner is None else self._success(walk, winner)
        sums = accumulate(exact_units(leaf.probability) for leaf in self.leaves[:-1])
        cdf = [rounded(total) for total in sums]
        return TrialProgram(root[0], tuple(self.leaves), self.max_draws, tuple(cdf))

    def _check_spec(self) -> None:
        """Refuse a non-finite time: events are matched by exact time, so an
        event at NaN would never be consumed and the walk would never end.
        Then refuse a spec built in Python, which may skip validate_spec, with
        the first problem of the checks the two share."""
        spec = self.spec
        times = [("emission", spec.emission.t)]
        times += [(where, at.t) for where, at in xp.located_points(spec)]
        for i, rule in enumerate(spec.rules):
            times.append((f"rule {i}", rule.time))
            if isinstance(rule.trigger, TransactionFailed):
                times.append((f"rule {i} trigger", rule.trigger.time))
        if spec.coin is not None:
            times.append(("coin", spec.coin.flip_time))
        for where, t in times:
            if not math.isfinite(t):
                raise ValueError(f"{where}: time must be a finite number")
        problems = xp.occupancy_problems(spec) + xp.interval_problems(spec)
        problems += xp.coin_problems(spec.coin) if spec.coin else []
        if problems:
            raise ValueError(problems[0])

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
                faces = []
                for i, label in enumerate(coin.labels):
                    face = walk.clone(copy=i < len(coin.labels) - 1)
                    face.add(LedgerEvent(EventKind.COIN, t, label=label))
                    faces.append((face, None, None))
                return self._split(walk, points, faces, frames)
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

    def _split(self, walk: _Walk, points: tuple[float, ...], branches: list, frames: list) -> Node:
        """A node splitting [0, 1) at ``points``.  Branch i is (child walk,
        failures or None, winner or None): its frame grows the child,
        weighted by the width of slice i."""
        node = Node(walk.draws, points, [None] * len(branches))
        bounds = (0.0,) + points + (1.0,)
        for i in reversed(range(len(branches))):
            child, failures, winner = branches[i]
            child.draws = walk.draws + 1
            child.prob = walk.prob * (bounds[i + 1] - bounds[i])
            frames.append((child, failures, winner, node.children, i))
        return node

    def _resolve(self, walk: _Walk, split: tuple, frames: list) -> Node | Leaf:
        """Branch on which candidate wins, plus (sequential only) the residual
        branch on which every candidate fails and the walk goes on."""
        ordered, points, residual = split
        if len(ordered) == 1 and not residual:
            return self._success(walk, ordered[0])
        hierarchy, n = self.strategy is ResolutionStrategy.HIERARCHY, len(ordered)
        # One failure event per candidate, stored once for every child: the
        # hierarchy walk stops at its winner, so only nearer candidates were
        # tried and failed, and any other winner's record skips its own.
        fails = tuple(
            LedgerEvent(EventKind.FAILURE, tx.absorbed_at.t, absorber=tx.absorber, channel=tx.channel)
            for tx in ordered
        )
        notable = walk.audit.notable(fails)
        prefix = walk.freeze()
        views = [Record(prefix, fails, stop=i) if hierarchy else Record(prefix, fails, skip=i) for i in range(n)]
        branches = [(walk.clone(copy=False), (view, notable), tx) for view, tx in zip(views, ordered)]
        if residual:
            branches.append((walk.clone(copy=False), (Record(prefix, fails), None), None))
        return self._split(walk, points, branches, frames)

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
        txs = xp.answer(self.spec, responding, self.bin_channels, self.screen_basis)
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
        events.audit = audit.close()
        ledger = TrialLedger(events, audit.label, outcome)
        offered, unoffered = audit.weights
        leaf = Leaf(
            index=len(self.leaves),
            outcome=outcome,
            coin_outcome=audit.coin,
            ledger=ledger,
            conditions=audit.conditions,
            weight_sum_error=abs(offered + unoffered - 1.0),
            violations=tuple(check_bilking(ledger, self.triggers)),
            probability=walk.prob,
        )
        self.leaves.append(leaf)
        self.max_draws = max(self.max_draws, walk.draws)
        return leaf


def _build(
    spec: xp.ExperimentSpec, strategy: ResolutionStrategy, tie_break: bool = True
) -> TrialProgram:
    return _Builder(spec, ResolutionStrategy(strategy), bool(tie_break)).build()


_cached_build = lru_cache(maxsize=64)(_build)


def compile_program(
    spec: xp.ExperimentSpec,
    strategy: ResolutionStrategy | str,
    tie_break: bool = True,
) -> TrialProgram:
    """Grow (and cache) the decision tree for one spec/strategy pairing.

    The arguments are normalized before the cache lookup, so every call
    form of the same triple shares one entry and one tree.
    """
    return _cached_build(spec, ResolutionStrategy(strategy), bool(tie_break))


# The lru_cache interface, with ``__wrapped__`` an uncached compile.
compile_program.cache_clear = _cached_build.cache_clear
compile_program.cache_info = _cached_build.cache_info
compile_program.__wrapped__ = _build


# Most cuts for which classify_counts compares the column with each cut
# rather than sort it: on 50 000 rows a pass costs about 10 us and the sort
# about 270 us (2 CPUs, numpy 2.4), so they meet near 26 cuts; 16 keeps a margin.
COUNT_CUTS_MAX = 16


def classify_counts(program: TrialProgram, uniforms: np.ndarray) -> np.ndarray:
    """Count per leaf the trials of a (trials, 1) uniform table.

    Row i lands on the leaf ``program.run`` picks drawing row i's value:
    leaf ``bisect_right(cdf, u)``, which holds ``cdf[i-1] <= u < cdf[i]``,
    so a value on a cut goes to the leaf above it.  The differences of the
    counts of values below each cut are the leaves' counts: a tree of at
    most ``COUNT_CUTS_MAX`` cuts compares the column with each cut, a larger
    one ranks its cuts in the column sorted in place (counts do not depend
    on row order).  The trial count is the table's row count, so a one-leaf
    tree, which has no cut, still counts every trial.

    Neither path copies the table.  A copy would make each chunk free two
    tables where it now frees one, which is just enough for malloc to hand
    the heap back to the kernel after every chunk and fault it in again.
    """
    column = uniforms[:, 0]
    if len(program.cdf) <= COUNT_CUTS_MAX:
        below = np.array([np.count_nonzero(column < cut) for cut in program.cdf], dtype=np.int64)
    else:
        column.sort()
        below = np.searchsorted(column, program.cdf, side="left")
    return np.diff(below, prepend=0, append=uniforms.shape[0])


def outcome_distribution(
    spec: xp.ExperimentSpec,
    strategy: ResolutionStrategy | str,
    tie_break: bool = True,
) -> dict[str, float]:
    """Exact outcome probabilities by summing leaf reach probabilities."""
    program = compile_program(spec, ResolutionStrategy(strategy), tie_break)
    return program.tally([leaf.probability for leaf in program.leaves])["outcomes"]
