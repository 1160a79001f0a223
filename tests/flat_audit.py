"""The bilking audit read straight off a whole record, as an oracle.

tqsim folds its audit down each tree as the tree grows
(``tqsim.engine.Audit``), so each leaf's verdict comes from what its
branch shares with others.  :func:`flat_audit` shares no code with that
fold but the event and trigger types: it reads one whole sequence of events
in one forward scan, keeping the failures and coin faces seen so far, and
gives the same verdict strings in the same order.
"""
import math

from tqsim.engine import DEGENERATE, NO_OUTCOME, Always, CoinOutcome, EventKind, TransactionFailed

APPARATUS = (EventKind.PLACE, EventKind.DIVERT, EventKind.REMOVE_SCREEN)
TERMINAL_KINDS = (EventKind.NO_TRANSACTION, EventKind.DEGENERATE)


def label(absorbers) -> str:
    return "OW(" + ",".join(sorted(set(absorbers))) + ")"


def met(trigger, failed, faces) -> bool:
    """Is ``trigger`` met by the failures (absorber, time) and coin faces seen?"""
    if isinstance(trigger, Always):
        return True
    if isinstance(trigger, TransactionFailed):
        # A NaN time equals no time.
        return trigger.time == trigger.time and (trigger.absorber, trigger.time) in failed
    if isinstance(trigger, CoinOutcome):
        return trigger.label in faces
    raise TypeError(f"unknown trigger {trigger!r}")


def flat_audit(ledger, triggers=()) -> list[str]:
    """``check_bilking``'s verdict on ``ledger``, read off its whole record."""
    violations = []
    events = tuple(ledger.events)

    failed, faces = set(), set()
    for e in events:
        if e.kind in APPARATUS and e.rule_index is not None:
            if e.rule_index >= len(triggers):
                violations.append(f"rule-index-out-of-range:{e.rule_index}")
            elif not met(triggers[e.rule_index], failed, faces):
                violations.append(f"placement-without-prior-trigger:rule{e.rule_index}@t={e.time}")
        if e.kind is EventKind.FAILURE:
            failed.add((e.absorber, e.time))
        elif e.kind is EventKind.COIN:
            faces.add(e.label)

    successes = [e for e in events if e.kind is EventKind.SUCCESS]
    if len(successes) > 1:
        violations.append("multiple-success")
    resolved: dict[str, int] = {}
    for e in events:
        if e.kind in (EventKind.SUCCESS, EventKind.FAILURE) and e.absorber:
            resolved[e.absorber] = resolved.get(e.absorber, 0) + 1
    violations += [f"duplicate-resolution:{a}" for a, n in resolved.items() if n > 1]
    if len(successes) == 1:
        winner = successes[0].absorber
        if ledger.final_outcome != winner:
            violations.append(f"outcome-mismatch:recorded={ledger.final_outcome},won={winner}")
    else:
        if ledger.final_outcome not in (NO_OUTCOME, DEGENERATE):
            violations.append(f"outcome-mismatch:no-success-but-outcome={ledger.final_outcome}")
        if not events or events[-1].kind not in TERMINAL_KINDS:
            violations.append("missing-terminal-event")

    answered = {e.absorber for e in events if e.kind is EventKind.CW and e.absorber is not None}
    expected = label(answered)
    if ledger.emitter_state != expected:
        violations.append("emitter-state-mismatch:ledger-disagrees-with-cw-record")
    if len(successes) == 1 and successes[0].absorber not in answered:
        violations.append(f"outcome-mismatch:{successes[0].absorber}-not-in-{expected}")
    violations += [
        f"failure-without-cw:{e.absorber}"
        for e in events
        if e.kind is EventKind.FAILURE and e.absorber not in answered
    ]
    return violations


def flat_fields(spec, events) -> tuple:
    """(coin face, conditions, emitter label, weight-sum error) of a leaf
    whose record is ``events``, read off the whole record."""
    refs = {r.trigger.absorber for r in spec.rules if isinstance(r.trigger, TransactionFailed)}
    resolved = {EventKind.FAILURE: "failed", EventKind.SUCCESS: "succeeded"}
    coin = next((e.label for e in events if e.kind is EventKind.COIN), None)
    conditions = tuple(
        f"coin:{e.label}" if e.kind is EventKind.COIN else f"{resolved[e.kind]}:{e.absorber}"
        for e in events
        if e.kind is EventKind.COIN or (e.kind in resolved and e.absorber in refs)
    )
    confirmations = [e for e in events if e.kind is EventKind.CW]
    bins = set(spec.screen.bin_labels()) if spec.screen else set()
    spent = {e.channel for e in confirmations}
    if spent & bins:
        spent = set(spec.initial_state.labels)
    state = spec.initial_state
    unoffered = math.fsum(abs(a) ** 2 for ch, a in zip(state.labels, state.amps) if ch not in spent)
    error = abs(math.fsum(e.weight for e in confirmations) + unoffered - 1.0)
    return coin, conditions, label(e.absorber for e in confirmations), error
