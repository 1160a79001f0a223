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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

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


def split_unit(weights: Sequence[float], mass: float = 1.0) -> tuple[tuple[float, ...], float]:
    """Cut points giving consecutive slices of [0, 1) widths w_i / mass.

    Each point is an exact prefix sum divided by ``mass``, so rounding never
    accumulates along the list.  Returns (points, residual): the slice past
    the last weight gets its own cut when it is wider than ``RESIDUAL_SNAP``;
    a narrower sliver is rounding, and the last weight's slice runs to 1.
    """
    cum = [float(p) / mass for p in accumulate(map(Fraction, weights))]
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


@dataclass(frozen=True, slots=True)
class TrialLedger:
    """Complete causal record of one trial; ``emitter_state`` is its :func:`emitter_label`."""

    events: tuple[LedgerEvent, ...]
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


def trigger_satisfied(trigger: Trigger, events: Sequence[LedgerEvent]) -> bool:
    """Is the trigger's condition on the record (strictly earlier events)?"""
    if isinstance(trigger, Always):
        return True
    if isinstance(trigger, TransactionFailed):
        return any(
            e.kind is EventKind.FAILURE and e.absorber == trigger.absorber and e.time == trigger.time
            for e in events
        )
    if isinstance(trigger, CoinOutcome):
        return any(e.kind is EventKind.COIN and e.label == trigger.label for e in events)
    raise TypeError(f"unknown trigger {trigger!r}")


_TERMINALS = (NO_OUTCOME, DEGENERATE)
_APPARATUS = (EventKind.PLACE, EventKind.DIVERT, EventKind.REMOVE_SCREEN)


def check_bilking(ledger: TrialLedger, triggers: Sequence[Trigger] = ()) -> list[str]:
    """Audit a completed trial for causal-loop bookkeeping violations.

    Checks, in order: (a) every apparatus change fired by a contingency rule
    has its triggering outcome strictly earlier on the record; (b) exactly
    one transaction succeeded, or the ledger ends in an explicit terminal
    state; (c) the recorded outcome and emitter state agree.  Violations are
    reported as strings; an empty list means the record is clean.
    """
    violations: list[str] = []
    events = ledger.events

    for i, e in enumerate(events):
        if e.kind in _APPARATUS and e.rule_index is not None:
            if e.rule_index >= len(triggers):
                violations.append(f"rule-index-out-of-range:{e.rule_index}")
                continue
            if not trigger_satisfied(triggers[e.rule_index], events[:i]):
                violations.append(
                    f"placement-without-prior-trigger:rule{e.rule_index}@t={e.time}"
                )

    successes = [e for e in events if e.kind is EventKind.SUCCESS]
    if len(successes) > 1:
        violations.append("multiple-success")
    resolved: dict[str, int] = {}
    for e in events:
        if e.kind in (EventKind.SUCCESS, EventKind.FAILURE) and e.absorber:
            resolved[e.absorber] = resolved.get(e.absorber, 0) + 1
    for absorber, n in resolved.items():
        if n > 1:
            violations.append(f"duplicate-resolution:{absorber}")
    if len(successes) == 1:
        winner = successes[0].absorber
        if ledger.final_outcome != winner:
            violations.append(f"outcome-mismatch:recorded={ledger.final_outcome},won={winner}")
    else:
        if ledger.final_outcome not in _TERMINALS:
            violations.append(f"outcome-mismatch:no-success-but-outcome={ledger.final_outcome}")
        terminal = (EventKind.NO_TRANSACTION, EventKind.DEGENERATE)
        if not events or events[-1].kind not in terminal:
            violations.append("missing-terminal-event")

    answered = {e.absorber for e in events if e.kind is EventKind.CW and e.absorber is not None}
    expected = emitter_label(answered)
    if ledger.emitter_state != expected:
        violations.append("emitter-state-mismatch:ledger-disagrees-with-cw-record")
    if len(successes) == 1 and successes[0].absorber not in answered:
        violations.append(f"outcome-mismatch:{successes[0].absorber}-not-in-{expected}")
    for e in events:
        if e.kind is EventKind.FAILURE and e.absorber not in answered:
            violations.append(f"failure-without-cw:{e.absorber}")

    return violations


def is_mismatch(violation: str) -> bool:
    """Does a :func:`check_bilking` violation say the recorded outcome or
    emitter state disagrees with the record (rather than a bilking breach)?"""
    return violation.startswith(("outcome-mismatch", "emitter-state-mismatch"))
