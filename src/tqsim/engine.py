"""Offer/confirmation-wave bookkeeping and transaction resolution.

An emitted offer wave carries amplitude on each channel; an absorber that
receives a component answers with a confirmation wave whose amplitude is
exactly the complex conjugate of the incident one.  Each offer/confirmation
pair defines an incipient transaction weighted by the squared modulus of
the channel amplitude (:func:`confirm`).  Every resolution strategy splits
[0, 1) among the competing candidates by one rule (:func:`cuts`); a uniform
draw against those cut points picks which (if any) incipient transaction
actualizes in a trial.
"""
from __future__ import annotations

import bisect
import enum
import math
from collections import ChainMap
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple

from .quantum import StateVector

# Weight-completeness tolerance for strategy preconditions.
COVERAGE_ATOL = 1e-9

# Probability slivers below this are float rounding, not physics; they are
# folded into the neighbouring interval instead of becoming branches.
RESIDUAL_SNAP = 1e-9

# Reserved outcome labels.  "none" marks a trial where no transaction formed;
# "degenerate" marks an interval ordering the hierarchy strategy cannot break.
NO_OUTCOME = "none"
DEGENERATE = "degenerate"


class StrategyError(ValueError):
    """A resolution strategy was applied outside its contract."""


class ResolutionStrategy(str, enum.Enum):
    """How competing incipient transactions are collapsed to one outcome."""

    GLOBAL_ECHO = "global-echo"
    HIERARCHY = "hierarchy"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True, slots=True)
class SpacetimePoint:
    t: float
    x: float


def spacetime_interval2(emission: SpacetimePoint, absorption: SpacetimePoint) -> float:
    """Squared interval (dt)^2 - (dx)^2 in units where c = 1.

    Zero marks a lightlike (photon) leg, positive timelike.  Absorption must
    not precede emission.
    """
    dt = absorption.t - emission.t
    if dt < 0:
        raise ValueError("absorption precedes emission")
    dx = absorption.x - emission.x
    return dt * dt - dx * dx


@dataclass(frozen=True, slots=True)
class IncipientTransaction:
    """A matched offer/confirmation pair, not yet actualized.

    ``weight`` is the Born weight |amp|^2 of the channel; ``interval2`` the
    squared emission-to-absorption interval used by the hierarchy strategy;
    ``absorbed_at`` the absorption event (its coordinate time is the default
    tie-break key).
    """

    channel: str
    absorber: str
    weight: float
    interval2: float
    absorbed_at: SpacetimePoint


def confirm(
    emission: SpacetimePoint,
    basis: StateVector,
    responders: Iterable[tuple[str, str, SpacetimePoint]],
) -> list[IncipientTransaction]:
    """Pair one offer wave over ``basis`` with each responder's confirmation.

    ``responders`` are (absorber, channel, absorption point) triples, one per
    channel.  Candidates come back in basis order; a zero-amplitude channel
    carries no offer, so its absorber forms no candidate.
    """
    by_channel = {ch: (aid, at) for aid, ch, at in responders}
    candidates = []
    for ch, amp in zip(basis.labels, basis.amps):
        if ch in by_channel and amp != 0:
            aid, at = by_channel[ch]
            # The confirmation's amplitude conjugates the offer's, so their
            # product is the Born weight |amp|^2.
            weight = (amp.conjugate() * amp).real
            candidates.append(
                IncipientTransaction(ch, aid, weight, spacetime_interval2(emission, at), at)
            )
    return candidates


def sort_by_interval(
    transactions: Sequence[IncipientTransaction], tie_break: bool = True
) -> list[IncipientTransaction] | str:
    """Order candidates by squared interval ascending, or report ``DEGENERATE``.

    With ``tie_break`` enabled, equal intervals are ordered by absorption
    coordinate time; a tie the policy cannot break (or any tie with the
    policy disabled) makes the ordering undefined.
    """
    if tie_break:
        key = lambda t: (t.interval2, t.absorbed_at.t)
    else:
        key = lambda t: (t.interval2,)
    ordered = sorted(transactions, key=key)
    for a, b in zip(ordered, ordered[1:]):
        if key(a) == key(b):
            return DEGENERATE
    return ordered


def exact_units(x: float) -> int:
    """``x`` as a whole number of 2**-1074, the spacing of the subnormal
    floats, so that sums of floats are exact."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def rounded(units: int) -> float:
    """A sum of :func:`exact_units`, rounded once, as ``math.fsum`` rounds."""
    return units / (1 << 1074)


def split_unit(weights: Sequence[float], mass: float = 1.0) -> tuple[tuple[float, ...], float]:
    """Cut points giving consecutive slices of [0, 1) widths w_i / mass.

    Each point is an exact prefix sum divided by ``mass``, so rounding never
    accumulates along the list.  Returns (points, residual): the slice past
    the last weight gets its own cut when it is wider than ``RESIDUAL_SNAP``;
    a narrower sliver is rounding, and the last weight's slice runs to 1.
    """
    cum = [rounded(p) / mass for p in accumulate(map(exact_units, weights))]
    residual = 1.0 - (cum[-1] if cum else 0.0)
    if residual > RESIDUAL_SNAP:
        return tuple(cum), residual
    return tuple(cum[:-1]), 0.0


def cuts(
    strategy: ResolutionStrategy | str,
    candidates: Sequence[IncipientTransaction],
    burned_mass: float = 0.0,
    tie_break: bool = True,
) -> tuple[tuple[IncipientTransaction, ...], tuple[float, ...], float] | str:
    """The one rule by which every strategy splits [0, 1) among candidates.

    Returns (ordered, points, residual): ``ordered[i]`` owns the slice of
    [0, 1) ending at ``points[i]`` (see :func:`split_unit`), and a draw past
    the last candidate's slice forms no transaction.  Global echo and
    hierarchy need the candidates to cover the unit mass; hierarchy ranks
    them nearest interval first, or returns ``DEGENERATE`` when that order is
    undefined.  Sequential resolution splits the mass m = 1 - ``burned_mass``
    not yet burned by earlier failures: candidate i wins with weight w_i / m.
    """
    strategy = ResolutionStrategy(strategy)
    total = math.fsum(tx.weight for tx in candidates)
    mass = 1.0
    ordered: Sequence[IncipientTransaction] | str = candidates
    if strategy is ResolutionStrategy.SEQUENTIAL:
        mass = 1.0 - burned_mass
        if mass <= COVERAGE_ATOL:
            raise StrategyError("probability mass exhausted")
        if total - mass > COVERAGE_ATOL:
            raise StrategyError("present weight exceeds the remaining probability mass")
    elif not candidates or abs(total - 1.0) > COVERAGE_ATOL:
        if strategy is ResolutionStrategy.GLOBAL_ECHO:
            raise StrategyError("GlobalEcho requires complete absorber coverage")
        raise StrategyError("hierarchy requires complete absorber coverage")
    elif strategy is ResolutionStrategy.HIERARCHY:
        ordered = sort_by_interval(candidates, tie_break)
        if ordered == DEGENERATE:
            return DEGENERATE
    points, residual = split_unit([tx.weight for tx in ordered], mass)
    return tuple(ordered), points, residual


def resolve_hierarchy(
    transactions: Sequence[IncipientTransaction], rng, tie_break: bool = True
) -> IncipientTransaction | str:
    """Walk candidates nearest-interval first, each taking its conditional chance.

    Candidate i is accepted with probability w_i / (1 - sum of earlier
    weights), which reproduces the plain Born marginals; one draw against
    the hierarchy's :func:`cuts` does the whole walk.  Returns
    ``DEGENERATE`` when the interval ordering is undefined (all-photon
    layouts: every squared interval is zero).
    """
    split = cuts(ResolutionStrategy.HIERARCHY, transactions, tie_break=tie_break)
    if split == DEGENERATE:
        return DEGENERATE
    ordered, points, _residual = split
    return ordered[bisect.bisect_right(points, rng.random())]


class EventKind(str, enum.Enum):
    CW = "cw"
    SUCCESS = "success"
    FAILURE = "failure"
    PLACE = "place"
    DIVERT = "divert"
    REMOVE_SCREEN = "remove-screen"
    COIN = "coin"
    NO_TRANSACTION = "no-transaction"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class LedgerEvent:
    kind: EventKind
    time: float
    absorber: str | None = None
    channel: str | None = None
    label: str | None = None
    weight: float | None = None
    rule_index: int | None = None


def emitter_label(absorbers: Iterable[str]) -> str:
    """The emitter's state: which absorbers answered it, e.g. ``OW(A,B)``."""
    return "OW(" + ",".join(sorted(set(absorbers))) + ")"


class Record(Sequence):
    """A ledger's events as an immutable, parent-linked sequence.

    A segment's events, ``items[:stop]`` less the one at ``skip``, follow
    its parent's.  So a tree node stores the events it adds once, and a
    resolution node its candidates' failures once for all its children: a
    winner's segment skips the winner's own failure (or stops before it).
    ``len`` is kept on each segment.
    """

    __slots__ = ("parent", "items", "stop", "skip", "size")

    def __init__(
        self,
        parent: "Record | None",
        items: tuple[LedgerEvent, ...],
        stop: int | None = None,
        skip: int | None = None,
    ):
        self.parent, self.items, self.skip = parent, items, skip
        self.stop = len(items) if stop is None else stop
        self.size = (0 if parent is None else parent.size) + self.stop - (skip is not None)

    def __len__(self) -> int:
        return self.size

    def own(self) -> tuple[LedgerEvent, ...]:
        """This segment's events, without its parent's."""
        if self.skip is None:
            return self.items[: self.stop]
        return self.items[: self.skip] + self.items[self.skip + 1 : self.stop]

    def __iter__(self):
        segments = []
        segment = self
        while segment is not None:
            segments.append(segment)
            segment = segment.parent
        for s in reversed(segments):
            yield from s.own()

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Record, tuple)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Record({tuple(self)!r})"


@dataclass(frozen=True, slots=True)
class TrialLedger:
    """Complete causal record of one trial; ``emitter_state`` is its :func:`emitter_label`."""

    events: Sequence[LedgerEvent]
    emitter_state: str
    final_outcome: str


# -- contingency triggers ----------------------------------------------------
#
# The closed trigger vocabulary lives here because triggers speak the
# engine's language (transaction resolutions, coin outcomes).  "Always"
# covers unconditionally scheduled apparatus changes.


@dataclass(frozen=True, slots=True)
class Always:
    pass


@dataclass(frozen=True, slots=True)
class TransactionFailed:
    absorber: str
    time: float


@dataclass(frozen=True, slots=True)
class CoinOutcome:
    label: str


Trigger = Always | TransactionFailed | CoinOutcome


class ViolationKind(str, enum.Enum):
    """What a trial's record shows to be wrong with it."""

    RULE_INDEX_OUT_OF_RANGE = "rule-index-out-of-range"
    PLACEMENT_WITHOUT_PRIOR_TRIGGER = "placement-without-prior-trigger"
    MULTIPLE_SUCCESS = "multiple-success"
    DUPLICATE_RESOLUTION = "duplicate-resolution"
    OUTCOME_MISMATCH = "outcome-mismatch"
    MISSING_TERMINAL_EVENT = "missing-terminal-event"
    EMITTER_STATE_MISMATCH = "emitter-state-mismatch"
    FAILURE_WITHOUT_CW = "failure-without-cw"


class Violation(NamedTuple):
    """One fault :func:`check_bilking` finds; ``detail`` names where it is."""

    kind: ViolationKind
    detail: str = ""


# The kinds that say the ledger disagrees with its record, not that it breaches causal order.
MISMATCHES = frozenset({ViolationKind.OUTCOME_MISMATCH, ViolationKind.EMITTER_STATE_MISMATCH})
_TERMINALS = (NO_OUTCOME, DEGENERATE)
_TERMINAL_KINDS = (EventKind.NO_TRANSACTION, EventKind.DEGENERATE)
_APPARATUS = (EventKind.PLACE, EventKind.DIVERT, EventKind.REMOVE_SCREEN)
# Condition prefixes of the resolutions recorded for trigger-named absorbers.
_RESOLVED = {EventKind.FAILURE: "failed", EventKind.SUCCESS: "succeeded"}


class Audit:
    """What a record shows so far, folded one event at a time by :meth:`step`.

    It keeps the rules fired, the triggers met (failures that ``triggers``
    name, coin faces), the absorbers that answered and the emitter's label,
    each absorber's first resolution, the leaf conditions (the coin's face
    and the resolutions of trigger-named absorbers), the weight offered, and
    the share of the emitted state no confirmation has taken up: ``shares``
    maps a channel to its share |amp|^2, and a confirmation on a channel in
    ``whole`` (a screen bin) takes up all of it.  :meth:`verdict` reports
    the violations of the whole record folded.
    """

    _TABLES = ("seen", "fired", "answered", "channels", "resolved", "dups")

    def __init__(
        self, triggers: Sequence[Trigger] = (), shares: dict | None = None, whole: Iterable[str] = ()
    ):
        self.triggers = tuple(triggers)
        self.named = {t for t in self.triggers if isinstance(t, TransactionFailed)}
        self.refs = {t.absorber for t in self.named}
        self.shares = {ch: exact_units(share) for ch, share in (shares or {}).items()}
        self.whole = frozenset(whole)
        self.seen, self.fired, self.answered, self.channels, self.resolved, self.dups = (
            {}, {}, {}, {}, {}, {}
        )
        self.names: tuple[str, ...] = ()  # the answered absorbers, sorted
        self.unsorted: list[str] = []  # answered since ``names`` was sorted
        self._label: str | None = None
        self.problems: tuple[Violation, ...] = ()  # trigger checks, in record order
        self.unanswered: tuple[str, ...] = ()  # failed before (or without) answering
        self.conditions: tuple[str, ...] = ()
        self.successes = self.resolutions = 0
        self.winner = self.coin = self.last = None
        self.offered = 0  # in units of 2**-1074
        self.untaken: int | None = sum(self.shares.values())  # None once all is taken

    def step(self, e: LedgerEvent) -> None:
        kind, absorber = e.kind, e.absorber
        if e.rule_index is not None:
            if kind in _APPARATUS:
                # The trigger must be met strictly earlier on the record.
                if e.rule_index >= len(self.triggers):
                    self.problems += (Violation(ViolationKind.RULE_INDEX_OUT_OF_RANGE, f"{e.rule_index}"),)
                elif not self.satisfied(self.triggers[e.rule_index]):
                    at = f"rule{e.rule_index}@t={e.time}"
                    self.problems += (Violation(ViolationKind.PLACEMENT_WITHOUT_PRIOR_TRIGGER, at),)
            self.fired[e.rule_index] = None
        if kind is EventKind.CW:
            if absorber is not None and absorber not in self.answered:
                self.answered[absorber] = None
                self.unsorted.append(absorber)
                self._label = None
            if e.channel not in self.channels:
                self.channels[e.channel] = None
                if e.channel in self.whole:
                    self.untaken = None
                elif self.untaken is not None:
                    self.untaken -= self.shares.get(e.channel, 0)
            if e.weight is not None:
                self.offered += exact_units(e.weight)
        elif kind in _RESOLVED:
            if absorber:
                if absorber in self.resolved:
                    self.dups[absorber] = None
                else:
                    self.resolved[absorber] = self.resolutions
                    self.resolutions += 1
            if kind is EventKind.SUCCESS:
                self.successes += 1
                if self.successes == 1:
                    self.winner = absorber
            elif absorber not in self.answered:
                self.unanswered += (absorber,)
            if absorber in self.refs:
                self.conditions += (f"{_RESOLVED[kind]}:{absorber}",)
                if kind is EventKind.FAILURE and e.time == e.time:  # NaN meets no trigger
                    met = TransactionFailed(absorber, e.time)
                    if met in self.named:
                        self.seen[met] = None
        elif kind is EventKind.COIN:
            self.seen[CoinOutcome(e.label)] = None
            if self.coin is None:
                self.coin = e.label
            self.conditions += (f"coin:{e.label}",)
        self.last = kind

    def fold(self, events: Iterable[LedgerEvent]) -> "Audit":
        for e in events:
            self.step(e)
        return self

    def satisfied(self, trigger: Trigger) -> bool:
        """Is the trigger's condition on the record so far?"""
        if isinstance(trigger, Always):
            return True
        if isinstance(trigger, (TransactionFailed, CoinOutcome)):
            return trigger in self.seen
        raise TypeError(f"unknown trigger {trigger!r}")

    @property
    def label(self) -> str:
        if self._label is None:
            # Two sorted runs: sorting them merges them, in linear time.
            self.names = tuple(sorted(self.names + tuple(sorted(self.unsorted))))
            self.unsorted = []
            self._label = emitter_label(self.names)
        return self._label

    @property
    def weights(self) -> tuple[float, float]:
        """The weight offered, and the share of the emitted state not taken
        up (0 once all is), each summed exactly and rounded once."""
        return rounded(self.offered), 0.0 if self.untaken is None else rounded(self.untaken)

    def notable(self, failures: Sequence[LedgerEvent]) -> list[int]:
        """Indices of the ``failures`` that would mark this audit beyond
        entering a fresh, answered absorber's first resolution: an
        unanswered, already resolved or trigger-named absorber, or any when
        one repeats.  A record that goes on with some of these failures and
        then ends with the success of an absorber whose own failure it left
        out need fold only the notable ones: nothing after them looks at the
        others.  The tree builder checks that premise at each winner's leaf
        and folds every failure of a view that holds one of its winner's."""
        repeats = len({e.absorber for e in failures}) < len(failures)
        return [
            j for j, e in enumerate(failures)
            if repeats or not e.absorber or e.absorber not in self.answered
            or e.absorber in self.resolved or e.absorber in self.refs
        ]

    def fork(self, overlay: bool = False) -> "Audit":
        """An audit to fold on apart from this one.  An overlay copies
        nothing: it stacks fresh tables on the ones resolutions write and
        shares the rest, so it may fold only failures and successes, and
        gives its verdict before this audit folds on (the tree builder makes
        each winner's leaf before it makes the next)."""
        self.label  # sorts the names, so that the fork shares them and the label
        other = object.__new__(Audit)
        other.__dict__.update(self.__dict__)
        other.unsorted = []
        for name in ("seen", "resolved", "dups") if overlay else self._TABLES:
            table = getattr(self, name)
            setattr(other, name, ChainMap({}, table) if overlay else dict(table))
        return other

    def verdict(self, outcome: str, emitter_state: str) -> list[Violation]:
        """The violations of the whole record folded here, whose ledger
        records ``outcome`` and ``emitter_state``, in the order reported."""
        found = list(self.problems)
        if self.successes > 1:
            found.append(Violation(ViolationKind.MULTIPLE_SUCCESS))
        dups = sorted(self.dups, key=self.resolved.__getitem__)
        found += [Violation(ViolationKind.DUPLICATE_RESOLUTION, f"{a}") for a in dups]
        mismatch = ViolationKind.OUTCOME_MISMATCH
        if self.successes == 1:
            if outcome != self.winner:
                found.append(Violation(mismatch, f"recorded={outcome},won={self.winner}"))
        else:
            if outcome not in _TERMINALS:
                found.append(Violation(mismatch, f"no-success-but-outcome={outcome}"))
            if self.last not in _TERMINAL_KINDS:
                found.append(Violation(ViolationKind.MISSING_TERMINAL_EVENT))
        if emitter_state != self.label:
            found.append(Violation(ViolationKind.EMITTER_STATE_MISMATCH, "ledger-disagrees-with-cw-record"))
        if self.successes == 1 and self.winner not in self.answered:
            found.append(Violation(mismatch, f"{self.winner}-not-in-{self.label}"))
        unanswered = [a for a in self.unanswered if a not in self.answered]
        found += [Violation(ViolationKind.FAILURE_WITHOUT_CW, f"{a}") for a in unanswered]
        return found


def trigger_satisfied(trigger: Trigger, events: Sequence[LedgerEvent]) -> bool:
    """Is the trigger's condition on the record (strictly earlier events)?"""
    return Audit((trigger,)).fold(events).satisfied(trigger)


def check_bilking(
    ledger: TrialLedger, triggers: Sequence[Trigger] = (), audit: Audit | None = None
) -> list[Violation]:
    """Audit a completed trial for causal-loop bookkeeping violations.

    Checks, in order: (a) every apparatus change fired by a contingency rule
    has its triggering outcome strictly earlier on the record; (b) exactly
    one transaction succeeded, or the ledger ends in an explicit terminal
    state; (c) the recorded outcome and emitter state agree.  An empty list
    means the record is clean.

    ``audit`` is the caller's own fold of ``ledger.events`` against
    ``triggers``; without one, the events are folded here, once.
    """
    if audit is None:
        audit = Audit(triggers).fold(ledger.events)
    return audit.verdict(ledger.final_outcome, ledger.emitter_state)
