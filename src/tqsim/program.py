"""Compiled decision trees: one per (spec, strategy, tie-break) triple.

The single-trial API and the batched runner execute the same tree, so their
statistics agree draw for draw.  Internal nodes consume one uniform each and
split [0, 1) at precomputed cut points; leaves carry the canonical trial
record (ledger, outcome, audit results) shared by every trial landing there.
Branch probabilities fall out of the cut geometry, which doubles as an exact
enumerator for cross-checks.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from . import experiments as xp
from .engine import (
    DEGENERATE,
    NO_OUTCOME,
    Always,
    EventKind,
    IncipientTransaction,
    LedgerEvent,
    ResolutionStrategy,
    SpacetimePoint,
    StrategyError,
    TransactionFailed,
    TrialLedger,
    check_bilking,
    cuts,
    emitter_label,
    is_mismatch,
    split_unit,
    trigger_satisfied,
)

# Kinds of the next event on a branch; on equal times the smaller kind goes
# first (the coin, then scheduled actions, then absorptions).
_COIN, _ACTIONS, _ABSORB = 0, 1, 2

# Condition prefixes of the resolutions recorded for trigger-named absorbers.
_RESOLVED = {EventKind.FAILURE: "failed", EventKind.SUCCESS: "succeeded"}

# Ledger events one tree's leaves may hold together.  Every screen leaf
# copies the branch's shared prefix, so a wide screen grows its tree
# quadratically in the bin count; past this bound the tree is refused.
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
    children: tuple["Node | Leaf", ...]


@dataclass(frozen=True, eq=False)
class TrialProgram:
    root: "Node | Leaf"
    leaves: tuple[Leaf, ...]
    draws: int

    def run(self, rng) -> Leaf:
        node = self.root
        while isinstance(node, Node):
            node = node.children[bisect.bisect_right(node.cuts, rng.random())]
        return node

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


def _coin_face(events: Sequence[LedgerEvent]) -> str | None:
    return next((e.label for e in events if e.kind is EventKind.COIN), None)


@dataclass
class _Walk:
    """Mutable branch state while the tree is being grown.  ``events`` is
    the branch's only record: rules fire, the coin shows its face, and the
    spent channels and leaf conditions are read, off it."""

    time: float
    present: dict[str, tuple[str, SpacetimePoint]]
    draws: int = 0
    prob: float = 1.0
    events: list[LedgerEvent] = field(default_factory=list)
    # Every candidate confirmed on this branch; the fixed strategies let
    # them all compete in one round once the branch has run its course.
    offered: list[IncipientTransaction] = field(default_factory=list)

    def clone(self) -> "_Walk":
        return _Walk(
            self.time, dict(self.present), self.draws, self.prob, list(self.events), list(self.offered)
        )


class _Builder:
    def __init__(self, spec: xp.ExperimentSpec, strategy: ResolutionStrategy, tie_break: bool):
        self.spec = spec
        self.strategy = strategy
        self.tie_break = tie_break
        self.bin_channels = spec.bin_channels()
        self.state_channels = set(spec.initial_state.labels)
        self.triggers = tuple(r.trigger for r in spec.rules)
        self.trigger_refs = {t.absorber for t in self.triggers if isinstance(t, TransactionFailed)}
        self.leaves: list[Leaf] = []
        self.ledger_events = 0
        self.max_draws = 0

    def build(self) -> TrialProgram:
        self._check_times()
        if self.strategy is not ResolutionStrategy.SEQUENTIAL and any(
            not isinstance(t, Always) for t in self.triggers
        ):
            raise StrategyError("strategy requires fixed absorber set")
        root = self._grow(self._initial_walk())
        return TrialProgram(root, tuple(self.leaves), self.max_draws)

    def _check_times(self) -> None:
        """Refuse a non-finite time: events are matched by exact time, so an
        event at NaN would never be consumed and the walk would never end."""
        spec = self.spec
        times = [("emission", spec.emission.t)]
        times += [(f"absorber {a.id!r}", a.position.t) for a in spec.absorbers]
        for i, rule in enumerate(spec.rules):
            times.append((f"rule {i}", rule.time))
            if isinstance(rule.trigger, TransactionFailed):
                times.append((f"rule {i} trigger", rule.trigger.time))
            if not isinstance(rule.action, xp.RemoveScreen):
                times.append((f"rule {i} placement", rule.action.position.t))
        if spec.coin is not None:
            times.append(("coin", spec.coin.flip_time))
        for where, t in times:
            if not math.isfinite(t):
                raise ValueError(f"{where}: time must be a finite number")

    def _initial_walk(self) -> _Walk:
        present: dict[str, tuple[str, SpacetimePoint]] = {}
        for a in self.spec.absorbers:
            if not a.initially_present:
                continue
            if any(ch == a.channel for ch, _ in present.values()):
                raise ValueError(f"two absorbers on channel {a.channel!r} simultaneously present")
            present[a.id] = (a.channel, a.position)
        return _Walk(self.spec.emission.t, present)

    # -- event-by-event growth ------------------------------------------

    def _next_event(self, walk: _Walk) -> tuple[float, int, list[int]] | None:
        """(time, kind, rules firing then) of the earliest event still to come
        on the branch, or None when it has run its course.  A rule is due
        once its trigger is on the branch's record and it has not fired: each
        fired rule leaves one apparatus event carrying its index."""
        rules = self.spec.rules
        candidates = []
        if self.spec.coin is not None and _coin_face(walk.events) is None:
            candidates.append((self.spec.coin.flip_time, _COIN, []))
        fired = {e.rule_index for e in walk.events if e.rule_index is not None}
        due = [
            i for i, rule in enumerate(rules)
            if i not in fired and trigger_satisfied(rule.trigger, walk.events)
        ]
        if due:
            at = min(rules[i].time for i in due)
            candidates.append((at, _ACTIONS, [i for i in due if rules[i].time == at]))
        if walk.present:
            candidates.append((min(pos.t for _, pos in walk.present.values()), _ABSORB, []))
        # Kinds differ, so the rule lists are never compared.
        return min(candidates) if candidates else None

    def _grow(self, walk: _Walk) -> Node | Leaf:
        """Run the branch event by event.  Sequential resolution settles each
        absorption as it happens; the fixed strategies resolve once, over
        everything offered, after the last event."""
        sequential = self.strategy is ResolutionStrategy.SEQUENTIAL
        while (event := self._next_event(walk)) is not None:
            t, kind, due = event
            if kind == _COIN:
                return self._coin_node(walk)
            if kind == _ACTIONS:
                self._apply_actions_at(walk, t, due)
            elif (txs := self._absorb_event(walk, t)) and sequential:
                # Every candidate offered before these has failed on this branch.
                burned = math.fsum(tx.weight for tx in walk.offered[: -len(txs)])
                return self._resolve(walk, cuts(self.strategy, txs, burned))
        if sequential:
            return self._leaf(walk, NO_OUTCOME, terminal=EventKind.NO_TRANSACTION)
        split = cuts(self.strategy, walk.offered, tie_break=self.tie_break)
        if split == DEGENERATE:
            return self._leaf(walk, DEGENERATE, terminal=EventKind.DEGENERATE)
        return self._resolve(walk, split)

    def _split(self, walk: _Walk, points: tuple[float, ...], grow) -> Node:
        """A node drawing one uniform: child i grows, via ``grow(i, child)``,
        from a copy of ``walk`` weighted by the width of slice i."""
        children = []
        prev = 0.0
        for i, hi in enumerate(points + (1.0,)):
            child = walk.clone()
            child.draws = walk.draws + 1
            child.prob = walk.prob * (hi - prev)
            children.append(grow(i, child))
            prev = hi
        return Node(walk.draws, points, tuple(children))

    def _coin_node(self, walk: _Walk) -> Node:
        coin = self.spec.coin
        points, residual = split_unit(coin.weights)
        if residual:
            raise ValueError("coin weights must sum to 1")

        def flip(j: int, child: _Walk) -> Node | Leaf:
            label = coin.labels[j]
            child.time = coin.flip_time
            child.events.append(LedgerEvent(EventKind.COIN, coin.flip_time, label=label))
            return self._grow(child)

        return self._split(walk, points, flip)

    def _resolve(self, walk: _Walk, split: tuple) -> Node | Leaf:
        """Branch on which candidate wins, plus (sequential only) the residual
        branch on which every candidate fails and the walk goes on."""
        ordered, points, residual = split
        if len(ordered) == 1 and not residual:
            return self._success(walk.clone(), ordered[0])
        hierarchy = self.strategy is ResolutionStrategy.HIERARCHY
        # Each child copies this branch's record, and winner i's leaf adds
        # its losers' failures and its success: refuse the tree now if those
        # alone would break the bound.
        n = len(ordered)
        failures = n * (n - 1) // 2 if hierarchy else n * (n - 1)
        self._check_size(
            self.ledger_events + (n + bool(residual)) * len(walk.events) + failures + n
        )

        # One failure event per candidate, shared by every child that records it.
        fails = [
            LedgerEvent(EventKind.FAILURE, tx.absorbed_at.t, absorber=tx.absorber, channel=tx.channel)
            for tx in ordered
        ]

        def settle(i: int, child: _Walk) -> Node | Leaf:
            if i == len(ordered):
                child.events += fails
                return self._grow(child)
            # The hierarchy walk stops at its winner, so only nearer
            # candidates were tried and failed.
            child.events += fails[:i] if hierarchy else fails[:i] + fails[i + 1:]
            return self._success(child, ordered[i])

        return self._split(walk, points, settle)

    def _apply_actions_at(self, walk: _Walk, t: float, due: list[int]) -> None:
        """Fire the due rules, in rule-index order, at time ``t``."""
        for ridx in due:
            action = self.spec.rules[ridx].action
            if isinstance(action, xp.RemoveScreen):
                for aid in [a for a, (ch, _) in walk.present.items() if ch in self.bin_channels]:
                    del walk.present[aid]
                walk.events.append(LedgerEvent(EventKind.REMOVE_SCREEN, t, rule_index=ridx))
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
            walk.events.append(
                LedgerEvent(kind, t, absorber=aid, channel=action.channel, rule_index=ridx)
            )
        walk.time = t

    def _spent(self, events: Sequence[LedgerEvent]) -> set[str]:
        """Channels whose component was taken up on the branch: those that
        confirmed, or every channel of the emitted state once a bin has."""
        spent = {e.channel for e in events if e.kind is EventKind.CW}
        return self.state_channels if spent & self.bin_channels else spent

    def _absorb_event(self, walk: _Walk, t: float) -> list[IncipientTransaction]:
        """Confirmation waves for every live absorber whose time has come."""
        spent = self._spent(walk.events)
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
        txs = xp.answer(self.spec, responding)
        for tx in txs:
            walk.events.append(
                LedgerEvent(EventKind.CW, t, absorber=tx.absorber, channel=tx.channel, weight=tx.weight)
            )
        walk.offered.extend(txs)
        walk.time = t
        return txs

    def _success(self, walk: _Walk, winner: IncipientTransaction) -> Leaf:
        walk.events.append(
            LedgerEvent(EventKind.SUCCESS, winner.absorbed_at.t, absorber=winner.absorber,
                        channel=winner.channel, weight=winner.weight)
        )
        return self._leaf(walk, winner.absorber)

    def _leaf(self, walk: _Walk, outcome: str, terminal: EventKind | None = None) -> Leaf:
        if terminal is not None:
            walk.events.append(LedgerEvent(terminal, walk.time))
        events = tuple(walk.events)
        self.ledger_events += len(events)
        self._check_size(self.ledger_events)
        ledger = TrialLedger(events, emitter_label(tx.absorber for tx in walk.offered), outcome)
        spent = self._spent(events)
        unoffered = math.fsum(
            abs(self.spec.initial_state.amp(ch)) ** 2
            for ch in self.spec.initial_state.labels
            if ch not in spent
        )
        leaf = Leaf(
            index=len(self.leaves),
            outcome=outcome,
            coin_outcome=_coin_face(events),
            ledger=ledger,
            conditions=self._conditions(events),
            weight_sum_error=abs(math.fsum(tx.weight for tx in walk.offered) + unoffered - 1.0),
            violations=tuple(check_bilking(ledger, self.triggers)),
            probability=walk.prob,
        )
        self.leaves.append(leaf)
        self.max_draws = max(self.max_draws, walk.draws)
        return leaf

    def _conditions(self, events: Sequence[LedgerEvent]) -> tuple[str, ...]:
        """The coin's face and the resolutions of trigger-named absorbers, in ledger order."""
        return tuple(
            f"coin:{e.label}" if e.kind is EventKind.COIN else f"{_RESOLVED[e.kind]}:{e.absorber}"
            for e in events
            if e.kind is EventKind.COIN or (e.kind in _RESOLVED and e.absorber in self.trigger_refs)
        )

    @staticmethod
    def _check_size(ledger_events: int) -> None:
        if ledger_events > MAX_LEDGER_EVENTS:
            raise ValueError(
                f"tree too large: its leaves would hold more than {MAX_LEDGER_EVENTS}"
                " ledger events (MAX_LEDGER_EVENTS)"
            )


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


def classify_counts(program: TrialProgram, uniforms: np.ndarray) -> np.ndarray:
    """Push a (trials, draws) uniform block through the tree; count per leaf.

    Row i lands on the leaf ``program.run`` reaches drawing row i's entries
    in order, so batched and one-at-a-time execution agree.  At a node,
    value u goes to child ``bisect_right(cuts, u)`` (``searchsorted(cuts,
    u, side="right")``): child c holds ``cuts[c-1] <= u < cuts[c]``, and a
    value on a cut goes to the child above it.  So the children's counts
    come from ranking the cuts in the node's sorted column:
    ``searchsorted(sorted, cuts, side="left")`` counts the values below
    each cut, and its differences are the children's counts.  A leaf child
    just adds its count; only an internal child takes its rows, through
    one range mask.
    """
    counts = np.zeros(len(program.leaves), dtype=np.int64)
    # An explicit stack, not a self-referencing closure: a closure cycle
    # would keep ``uniforms`` alive until the cyclic collector ran.
    # Rows reaching a node, as indices into ``uniforms``; None for all of them.
    stack = [(program.root, None)]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            counts[node.index] += uniforms.shape[0] if rows is None else rows.size
            continue
        col = uniforms[:, node.draw] if rows is None else uniforms[rows, node.draw]
        below = np.searchsorted(np.sort(col), node.cuts, side="left")
        sizes = np.diff(below, prepend=0, append=col.size)
        for c, (child, size) in enumerate(zip(node.children, sizes)):
            if not size:
                continue
            if isinstance(child, Leaf):
                counts[child.index] += size
                continue
            if c == 0:
                inside = col < node.cuts[0]
            elif c == len(node.cuts):
                inside = col >= node.cuts[-1]
            else:
                inside = (col >= node.cuts[c - 1]) & (col < node.cuts[c])
            stack.append((child, np.flatnonzero(inside) if rows is None else rows[inside]))
    return counts


def outcome_distribution(
    spec: xp.ExperimentSpec,
    strategy: ResolutionStrategy | str,
    tie_break: bool = True,
) -> dict[str, float]:
    """Exact outcome probabilities by summing leaf reach probabilities."""
    program = compile_program(spec, ResolutionStrategy(strategy), tie_break)
    return program.tally([leaf.probability for leaf in program.leaves])["outcomes"]
