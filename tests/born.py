"""The Born rule as an oracle for the exact law, sharing no code with the tree.

``born_law`` reads a spec directly.  Every candidate's chance of winning is
its Born weight, whatever the strategy: sequential resolution reaches round
r with the mass m_r that every earlier candidate left by failing, and there
candidate i wins with w_i / m_r; the fixed strategies split the whole unit
among all candidates.  So on each coin face it is enough to follow the one
branch on which every candidate failed, note which absorber answers each
channel first, and sum the Born weights over the faces.  Arrangements the
hierarchy cannot rank (``degenerate``) are outside this rule.

This module imports the state and spec types only, never the tree builder.
"""
import math

from tqsim.engine import Always, CoinOutcome, TransactionFailed
from tqsim.experiments import (
    DivertChannel,
    ExperimentSpec,
    PlaceAbsorber,
    RemoveScreen,
    screen_amplitudes,
)


def _face_law(spec: ExperimentSpec, face: str | None) -> dict[str, float]:
    """Born weight per answering absorber on the branch where every candidate fails."""
    bins = set(spec.screen.bin_labels()) if spec.screen else set()
    state_channels = set(spec.initial_state.labels)
    present = {a.id: (a.channel, a.position.t) for a in spec.absorbers if a.initially_present}
    pending = dict(enumerate(spec.rules))
    failed: set[tuple[str, float]] = set()  # (absorber, time) of every candidate
    spent: set[str] = set()  # channels whose component was taken up
    weights: dict[str, float] = {}

    def triggered(trigger) -> bool:
        if isinstance(trigger, Always):
            return True
        if isinstance(trigger, CoinOutcome):
            return trigger.label == face
        assert isinstance(trigger, TransactionFailed)
        return (trigger.absorber, trigger.time) in failed

    while True:
        due = {i: rule.time for i, rule in pending.items() if triggered(rule.trigger)}
        times = [t for _, t in present.values()] + list(due.values())
        if not times:
            break
        now = min(times)
        # Actions at a time come before the absorptions at that time.
        for i in sorted(i for i, t in due.items() if t == now):
            action = pending.pop(i).action
            if isinstance(action, RemoveScreen):
                present = {a: v for a, v in present.items() if v[0] not in bins}
            elif isinstance(action, PlaceAbsorber):
                present[action.absorber] = (action.channel, action.position.t)
            else:
                assert isinstance(action, DivertChannel)
                present = {a: v for a, v in present.items() if v[0] != action.channel}
                present[action.new_absorber] = (action.channel, action.position.t)
        responders = [(a, ch) for a, (ch, t) in present.items() if t == now]
        for a, _ in responders:
            del present[a]
        # A channel already taken up shadows its absorber: no confirmation.
        live = [(a, ch) for a, ch in responders if ch not in spent]
        basis = spec.initial_state
        if any(ch in bins for _, ch in live):  # the screen still stands
            basis = screen_amplitudes(spec.screen, spec.initial_state)
        amps = dict(zip(basis.labels, basis.amps))
        for a, ch in live:
            if amps.get(ch, 0) != 0:
                weights[a] = abs(amps[ch]) ** 2
                failed.add((a, now))
                spent.add(ch)
        if spent & bins:
            spent |= state_channels
    unanswered = [abs(amp) ** 2 for ch, amp in zip(spec.initial_state.labels, spec.initial_state.amps)
                  if ch not in spent]
    if unanswered:
        weights["none"] = math.fsum(unanswered)
    return weights


def born_law(spec: ExperimentSpec) -> dict[str, float]:
    """Exact outcome probabilities by the Born rule, summed over coin faces."""
    faces = zip(spec.coin.labels, spec.coin.weights) if spec.coin else [(None, 1.0)]
    terms: dict[str, list[float]] = {}
    for face, weight in faces:
        for outcome, w in _face_law(spec, face).items():
            terms.setdefault(outcome, []).append(weight * w)
    return {k: math.fsum(v) for k, v in sorted(terms.items())}
