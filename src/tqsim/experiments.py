"""Experiment layouts: absorbers, contingency rules, coin flips, screens.

A spec is a frozen value describing one arrangement: where the emitter sits,
which channels the emitted state spans, which absorbers are in place from the
start or swing in later under a contingency rule, plus an optional independent
coin and an optional far-field detection screen.  The bundled arrangements and
the JSON load/validate/serialize path live here too.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping

import numpy as np

from .engine import (
    NO_OUTCOME,
    Always,
    CoinOutcome,
    ResolutionStrategy,
    SpacetimePoint,
    TransactionFailed,
    Trigger,
    confirm,
    spacetime_interval2,
)
from .quantum import StateVector, normalize

SQRT_HALF = math.sqrt(0.5)

# Screen read-out modes.
INTERFERENCE = "interference"
WHICH_SLIT = "which-slit"


class SpecError(ValueError):
    """An experiment document failed to parse or validate."""


@dataclass(frozen=True, slots=True)
class AbsorberConfig:
    """One absorber: its identity, the channel it sits on, where it absorbs."""

    id: str
    channel: str
    position: SpacetimePoint
    initially_present: bool = True


@dataclass(frozen=True, slots=True)
class PlaceAbsorber:
    absorber: str
    channel: str
    position: SpacetimePoint


@dataclass(frozen=True, slots=True)
class DivertChannel:
    """Reroute a channel to a different absorber (the old target goes dark)."""

    channel: str
    new_absorber: str
    position: SpacetimePoint


@dataclass(frozen=True, slots=True)
class RemoveScreen:
    pass


Action = PlaceAbsorber | DivertChannel | RemoveScreen


@dataclass(frozen=True, slots=True)
class ContingencyRule:
    """Do ``action`` at coordinate ``time`` once ``trigger`` is on the record."""

    trigger: Trigger
    action: Action
    time: float


@dataclass(frozen=True, slots=True)
class CoinConfig:
    """Independent classical coin flipped mid-run.

    A rule whose trigger is ``CoinOutcome(label)`` arms only when the coin
    lands on that label.
    """

    labels: tuple[str, ...]
    weights: tuple[float, ...]
    flip_time: float


@dataclass(frozen=True, slots=True)
class ScreenModel:
    """Two-slit far-field screen binned into equal-width detection cells.

    Geometry: slits sit at x = +/- slit_separation/2, the screen plane at
    ``distance`` behind them, and ``bins`` equal cells tile ``span`` symmetric
    about the axis.
    """

    slit_separation: float
    wavelength: float
    distance: float
    bins: int
    span: float

    def __post_init__(self) -> None:
        if self.bins < 3 or self.bins % 2 == 0:
            raise ValueError("screen needs an odd bin count of at least 3")
        for name in ("slit_separation", "wavelength", "distance", "span"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def bin_width(self) -> float:
        return self.span / self.bins

    def bin_centers(self) -> np.ndarray:
        offsets = np.arange(self.bins) - (self.bins - 1) / 2
        return offsets * self.bin_width

    def bin_labels(self) -> tuple[str, ...]:
        return tuple(f"bin{k:03d}" for k in range(self.bins))


def _slit_terms(model: ScreenModel, state: StateVector) -> list[np.ndarray]:
    """Each channel's amplitude propagated over its path to every bin center,
    psi_s * exp(2*pi*i * r_s / wavelength), with the first channel leaving
    the +d/2 slit and the second the -d/2 slit."""
    if len(state.labels) != 2:
        raise ValueError("screen model needs a two-channel state")
    centers = model.bin_centers()
    slit_x = (model.slit_separation / 2.0, -model.slit_separation / 2.0)
    with np.errstate(all="ignore"):  # finite fields can still overflow the phase L / lambda
        terms = [
            amp * np.exp(2j * math.pi * np.hypot(model.distance, centers - sx) / model.wavelength)
            for amp, sx in zip(state.amps, slit_x)
        ]
    if not all(np.isfinite(term).all() for term in terms):
        raise ValueError("screen: geometry gives no finite bin basis (a path phase is not finite)")
    return terms


def screen_amplitudes(model: ScreenModel, state: StateVector) -> StateVector:
    """Re-express a two-channel state in the screen's bin basis.

    Each bin amplitude sums the channel amplitudes propagated over their
    path lengths; the result is normalized over bins.
    """
    amps = sum(_slit_terms(model, state))
    try:
        return normalize(StateVector(model.bin_labels(), tuple(map(complex, amps))))
    except ValueError as e:
        raise ValueError(f"screen: geometry gives no finite bin basis ({e})") from None


def screen_distribution(
    model: ScreenModel, mode: str, state: StateVector | None = None
) -> np.ndarray:
    """Analytic bin-hit distribution, normalized over bins.

    ``interference`` keeps the coherent two-path sum; ``which-slit`` adds the
    per-path intensities with no cross term (flat for equal amplitudes).
    """
    if state is None:
        state = StateVector(("slitA", "slitB"), (complex(SQRT_HALF), complex(SQRT_HALF)))
    if mode == INTERFERENCE:
        probs = np.abs(np.array(screen_amplitudes(model, state).amps)) ** 2
    elif mode == WHICH_SLIT:
        probs = sum(np.abs(term) ** 2 for term in _slit_terms(model, state))
    else:
        raise ValueError(f"unknown screen mode {mode!r}")
    return probs / probs.sum()


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Frozen description of one arrangement; hashable so runs can share
    compiled per-spec machinery."""

    name: str
    emission: SpacetimePoint
    initial_state: StateVector
    absorbers: tuple[AbsorberConfig, ...]
    rules: tuple[ContingencyRule, ...] = ()
    coin: CoinConfig | None = None
    screen: ScreenModel | None = None

    def bin_channels(self) -> frozenset[str]:
        return frozenset(self.screen.bin_labels()) if self.screen else frozenset()


class DceMode(str, Enum):
    ALWAYS_KEEP = "keep"
    ALWAYS_REMOVE = "remove"
    COIN_FLIP = "coinflip"


def _half_half(first: str, second: str) -> StateVector:
    return StateVector((first, second), (complex(SQRT_HALF), complex(SQRT_HALF)))


def maudlin_spec() -> ExperimentSpec:
    """Massive two-channel arrangement with a contingent second absorber.

    A sits close on the right channel.  B starts absent; the rule slides it
    onto the left channel only after A's transaction fails, so a left-moving
    particle is always caught.
    """
    return ExperimentSpec(
        name="maudlin",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=_half_half("R", "L"),
        absorbers=(
            AbsorberConfig("A", "R", SpacetimePoint(1.0, 0.5)),
            AbsorberConfig("B", "L", SpacetimePoint(2.0, -1.0), initially_present=False),
        ),
        rules=(
            ContingencyRule(
                trigger=TransactionFailed("A", 1.0),
                action=PlaceAbsorber("B", "L", SpacetimePoint(2.0, -1.0)),
                time=2.0,
            ),
        ),
    )


def miller_spec() -> ExperimentSpec:
    """All-photon variant: every leg lightlike, the far arm divertible.

    B starts boxed in on channel B.  When A's transaction fails, the channel
    is diverted to the free absorber B_prime; the boxed absorber is never a
    confirmation source, so it can never be the outcome.
    """
    return ExperimentSpec(
        name="miller",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=_half_half("A", "B"),
        absorbers=(
            AbsorberConfig("A", "A", SpacetimePoint(1.0, 1.0)),
            AbsorberConfig("B", "B", SpacetimePoint(3.0, 3.0)),
            AbsorberConfig("B_prime", "B", SpacetimePoint(3.0, -3.0), initially_present=False),
        ),
        rules=(
            ContingencyRule(
                trigger=TransactionFailed("A", 1.0),
                action=DivertChannel("B", "B_prime", SpacetimePoint(3.0, -3.0)),
                time=2.0,
            ),
        ),
    )


def _dce_screen() -> ScreenModel:
    # Fringe spacing distance*wavelength/separation = 100; 201 bins of width
    # 500/201 cover the five central fringes.
    return ScreenModel(
        slit_separation=10.0,
        wavelength=1.0,
        distance=1000.0,
        bins=201,
        span=500.0,
    )


def dce_spec(mode: DceMode | str = DceMode.ALWAYS_KEEP) -> ExperimentSpec:
    """Two-slit arrangement with a removable screen and which-slit telescopes.

    The screen's bins absorb at t=2; the telescopes sit behind it at t=3 and
    only ever see the light when the screen is gone.  ``keep`` leaves the
    screen alone, ``remove`` withdraws it unconditionally at t=1.5, and
    ``coinflip`` lets an independent fair coin (flipped at t=1.5) decide.
    """
    mode = DceMode(mode)
    screen = _dce_screen()
    bins = tuple(
        AbsorberConfig(label, label, SpacetimePoint(2.0, 2.0))
        for label in screen.bin_labels()
    )
    telescopes = (
        AbsorberConfig("TA", "slitA", SpacetimePoint(3.0, 3.0)),
        AbsorberConfig("TB", "slitB", SpacetimePoint(3.0, -3.0)),
    )
    coin = None
    if mode is DceMode.ALWAYS_REMOVE:
        name = "dce-remove"
        rules: tuple[ContingencyRule, ...] = (
            ContingencyRule(Always(), RemoveScreen(), 1.5),
        )
    elif mode is DceMode.COIN_FLIP:
        name = "dce-coinflip"
        rules = (ContingencyRule(CoinOutcome("up"), RemoveScreen(), 1.75),)
        coin = CoinConfig(("up", "down"), (0.5, 0.5), 1.5)
    else:
        name = "dce-keep"
        rules = ()
    return ExperimentSpec(
        name=name,
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=_half_half("slitA", "slitB"),
        absorbers=bins + telescopes,
        rules=rules,
        coin=coin,
        screen=screen,
    )


def dce_coinflip_spec() -> ExperimentSpec:
    return dce_spec(DceMode.COIN_FLIP)


BUILTIN_EXPERIMENTS: dict[str, tuple[Callable[[], ExperimentSpec], str]] = {
    "maudlin": (
        maudlin_spec,
        "massive two-channel run; absorber B swings in only after A fails",
    ),
    "miller": (
        miller_spec,
        "all-photon two-arm run; a failed near detection diverts the far arm",
    ),
    "dce-keep": (
        lambda: dce_spec(DceMode.ALWAYS_KEEP),
        "two-slit run with the screen kept in place (fringes)",
    ),
    "dce-remove": (
        lambda: dce_spec(DceMode.ALWAYS_REMOVE),
        "two-slit run with the screen withdrawn mid-flight (telescopes)",
    ),
    "dce-coinflip": (
        lambda: dce_spec(DceMode.COIN_FLIP),
        "two-slit run where an independent mid-flight coin decides the screen",
    ),
}


def builtin_spec(name: str) -> ExperimentSpec:
    try:
        factory, _ = BUILTIN_EXPERIMENTS[name]
    except KeyError:
        raise SpecError(f"unknown experiment {name!r}") from None
    return factory()


# -- JSON document form -------------------------------------------------------

def _fail(where: str, message: str) -> SpecError:
    return SpecError(f"{where}: {message}")


def _check_keys(obj: Mapping[str, Any], where: str, allowed: set[str], required: set[str]) -> None:
    if not isinstance(obj, Mapping):
        raise _fail(where, "expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise _fail(where, f"unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise _fail(where, f"missing field(s) {sorted(missing)}")


def _finite(v: Any, where: str, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _fail(where, f"{name} must be a number")
    try:
        x = float(v)
    except OverflowError:  # an integer literal past the float range
        x = math.inf
    # NaN and infinite times would stall or skip the event walk.
    if not math.isfinite(x):
        raise _fail(where, f"{name} must be a finite number")
    return x


def _number(obj: Mapping[str, Any], where: str, key: str) -> float:
    return _finite(obj[key], where, f"field {key!r}")


def _string(obj: Mapping[str, Any], where: str, key: str) -> str:
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise _fail(where, f"field {key!r} must be a non-empty string")
    return v


def _point(obj: Mapping[str, Any], where: str) -> SpacetimePoint:
    _check_keys(obj, where, {"t", "x"}, {"t", "x"})
    return SpacetimePoint(_number(obj, where, "t"), _number(obj, where, "x"))


def _parse_trigger(obj: Mapping[str, Any], where: str) -> Trigger:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise _fail(where, "trigger needs a 'kind'")
    kind = obj["kind"]
    if kind == "always":
        _check_keys(obj, where, {"kind"}, {"kind"})
        return Always()
    if kind == "transaction-failed":
        _check_keys(obj, where, {"kind", "id", "t"}, {"kind", "id", "t"})
        return TransactionFailed(_string(obj, where, "id"), _number(obj, where, "t"))
    if kind == "coin-outcome":
        _check_keys(obj, where, {"kind", "label"}, {"kind", "label"})
        return CoinOutcome(_string(obj, where, "label"))
    raise _fail(where, f"unknown trigger kind {kind!r}")


def _parse_action(obj: Mapping[str, Any], where: str) -> Action:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise _fail(where, "action needs a 'kind'")
    kind = obj["kind"]
    if kind in ("place", "divert"):
        keys = {"kind", "id", "channel", "t", "x"}
        _check_keys(obj, where, keys, keys)
        aid, channel = _string(obj, where, "id"), _string(obj, where, "channel")
        at = SpacetimePoint(_number(obj, where, "t"), _number(obj, where, "x"))
        return PlaceAbsorber(aid, channel, at) if kind == "place" else DivertChannel(channel, aid, at)
    if kind == "remove-screen":
        _check_keys(obj, where, {"kind"}, {"kind"})
        return RemoveScreen()
    raise _fail(where, f"unknown action kind {kind!r}")


def load_spec(source: str | bytes | Mapping[str, Any], validate: bool = True) -> ExperimentSpec:
    """Build a spec from a JSON document (text or parsed mapping).

    Unknown fields are rejected, state amplitudes are normalized on load, and
    (unless ``validate`` is off) the full consistency checks run; any failure
    raises :class:`SpecError` locating the offending entry.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except (ValueError, RecursionError) as e:
            # ValueError covers malformed JSON, undecodable bytes and
            # over-long integer literals; RecursionError an over-deep document.
            raise SpecError(f"parse error: {e}") from None
    else:
        doc = source
    _check_keys(
        doc,
        "document",
        {"name", "emission", "state", "absorbers", "rules", "coin", "screen"},
        {"name", "emission", "state", "absorbers"},
    )
    name = _string(doc, "document", "name")
    emission = _point(doc["emission"], "emission")

    if not isinstance(doc["state"], list) or not doc["state"]:
        raise _fail("state", "expected a non-empty list of channel amplitudes")
    labels: list[str] = []
    amps: list[complex] = []
    for i, entry in enumerate(doc["state"]):
        where = f"state[{i}]"
        _check_keys(entry, where, {"channel", "re", "im"}, {"channel", "re"})
        labels.append(_string(entry, where, "channel"))
        amps.append(complex(_number(entry, where, "re"), _number(entry, where, "im") if "im" in entry else 0.0))
    try:
        state = normalize(StateVector(tuple(labels), tuple(amps)))
    except ValueError as e:
        raise _fail("state", str(e)) from None

    if not isinstance(doc["absorbers"], list):
        raise _fail("absorbers", "expected a list")
    absorbers: list[AbsorberConfig] = []
    for i, entry in enumerate(doc["absorbers"]):
        where = f"absorbers[{i}]"
        _check_keys(entry, where, {"id", "channel", "t", "x", "present"}, {"id", "channel", "t", "x"})
        present = entry.get("present", True)
        if not isinstance(present, bool):
            raise _fail(where, "field 'present' must be a boolean")
        absorbers.append(
            AbsorberConfig(
                _string(entry, where, "id"),
                _string(entry, where, "channel"),
                SpacetimePoint(_number(entry, where, "t"), _number(entry, where, "x")),
                initially_present=present,
            )
        )

    if not isinstance(doc.get("rules", []), list):
        raise _fail("rules", "expected a list")
    rules: list[ContingencyRule] = []
    for i, entry in enumerate(doc.get("rules", [])):
        where = f"rules[{i}]"
        _check_keys(entry, where, {"trigger", "action", "time"}, {"trigger", "action", "time"})
        rules.append(
            ContingencyRule(
                _parse_trigger(entry["trigger"], f"{where}.trigger"),
                _parse_action(entry["action"], f"{where}.action"),
                _number(entry, where, "time"),
            )
        )

    coin = None
    if "coin" in doc and doc["coin"] is not None:
        entry = doc["coin"]
        _check_keys(entry, "coin", {"labels", "weights", "flip_time"}, {"labels", "weights", "flip_time"})
        if not isinstance(entry["labels"], list) or not all(isinstance(s, str) for s in entry["labels"]):
            raise _fail("coin", "field 'labels' must be a list of strings")
        if not isinstance(entry["weights"], list):
            raise _fail("coin", "field 'weights' must be a list of numbers")
        weights = tuple(_finite(w, "coin", f"weights[{j}]") for j, w in enumerate(entry["weights"]))
        coin = CoinConfig(tuple(entry["labels"]), weights, _number(entry, "coin", "flip_time"))

    screen = None
    if "screen" in doc and doc["screen"] is not None:
        entry = doc["screen"]
        _check_keys(entry, "screen", {"d", "lambda", "L", "bins", "span"}, {"d", "lambda", "L", "bins", "span"})
        nbins = entry["bins"]
        if isinstance(nbins, bool) or not isinstance(nbins, int):
            raise _fail("screen", "field 'bins' must be an integer")
        try:
            screen = ScreenModel(
                slit_separation=_number(entry, "screen", "d"),
                wavelength=_number(entry, "screen", "lambda"),
                distance=_number(entry, "screen", "L"),
                bins=nbins,
                span=_number(entry, "screen", "span"),
            )
        except ValueError as e:
            raise _fail("screen", str(e)) from None

    spec = ExperimentSpec(
        name=name,
        emission=emission,
        initial_state=state,
        absorbers=tuple(absorbers),
        rules=tuple(rules),
        coin=coin,
        screen=screen,
    )
    if validate:
        problems = validate_spec(spec)
        if problems:
            raise SpecError("; ".join(problems))
    return spec


def spec_to_document(spec: ExperimentSpec) -> dict[str, Any]:
    """Render a spec back to its JSON document form (round-trips with load)."""
    doc: dict[str, Any] = {
        "name": spec.name,
        "emission": {"t": spec.emission.t, "x": spec.emission.x},
        "state": [
            {"channel": ch, "re": amp.real, "im": amp.imag}
            for ch, amp in zip(spec.initial_state.labels, spec.initial_state.amps)
        ],
        "absorbers": [
            {"id": a.id, "channel": a.channel, "t": a.position.t, "x": a.position.x, "present": a.initially_present}
            for a in spec.absorbers
        ],
    }
    if spec.rules:
        doc["rules"] = [
            {"trigger": _trigger_doc(r.trigger), "action": _action_doc(r.action), "time": r.time}
            for r in spec.rules
        ]
    if spec.coin is not None:
        doc["coin"] = {
            "labels": list(spec.coin.labels),
            "weights": list(spec.coin.weights),
            "flip_time": spec.coin.flip_time,
        }
    if spec.screen is not None:
        doc["screen"] = {
            "d": spec.screen.slit_separation,
            "lambda": spec.screen.wavelength,
            "L": spec.screen.distance,
            "bins": spec.screen.bins,
            "span": spec.screen.span,
        }
    return doc


def _trigger_doc(trigger: Trigger) -> dict[str, Any]:
    if isinstance(trigger, Always):
        return {"kind": "always"}
    if isinstance(trigger, TransactionFailed):
        return {"kind": "transaction-failed", "id": trigger.absorber, "t": trigger.time}
    if isinstance(trigger, CoinOutcome):
        return {"kind": "coin-outcome", "label": trigger.label}
    raise TypeError(f"unknown trigger {trigger!r}")


def _action_doc(action: Action) -> dict[str, Any]:
    if isinstance(action, PlaceAbsorber):
        return {"kind": "place", "id": action.absorber, "channel": action.channel,
                "t": action.position.t, "x": action.position.x}
    if isinstance(action, DivertChannel):
        return {"kind": "divert", "channel": action.channel, "id": action.new_absorber,
                "t": action.position.t, "x": action.position.x}
    if isinstance(action, RemoveScreen):
        return {"kind": "remove-screen"}
    raise TypeError(f"unknown action {action!r}")


# -- validation ---------------------------------------------------------------


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Run every static consistency check; return problem strings (empty = ok).

    Beyond field-level checks this verifies causal ordering of every rule
    (no retro-placement), coin labels and weights, screen geometry constraints,
    and that sequential resolution leaves no probability unanswered on any
    reachable branch.
    """
    problems: list[str] = []
    state = spec.initial_state
    if not state.is_normalized(atol=1e-9):
        problems.append("state not normalized")
    if spec.screen is not None and spec.screen.bins > len(spec.absorbers):
        # Every bin needs an absorber; checked before the label per bin below.
        return problems + ["screen bins and bin absorbers disagree"]

    bin_channels = spec.bin_channels()
    known_channels = set(state.labels) | bin_channels

    ids: set[str] = set()
    for a in spec.absorbers:
        if a.id in ids:
            problems.append(f"duplicate absorber id {a.id!r}")
        ids.add(a.id)
        if a.channel not in known_channels:
            problems.append(f"absorber {a.id!r} on unknown channel {a.channel!r}")
        if a.position.t <= spec.emission.t:
            problems.append(f"absorber {a.id!r} absorbs before emission")

    per_channel: dict[str, list[str]] = {}
    for a in spec.absorbers:
        if a.initially_present:
            per_channel.setdefault(a.channel, []).append(a.id)
    for channel, present in per_channel.items():
        if len(present) > 1:
            problems.append(f"two absorbers on channel {channel!r} simultaneously present")

    screen_time = None
    if spec.screen is not None:
        try:  # a two-channel state, and a geometry with a finite bin basis
            screen_amplitudes(spec.screen, state)
        except ValueError as e:
            problems.append(str(e))
        bin_times = {a.position.t for a in spec.absorbers if a.channel in bin_channels}
        if len(bin_times) > 1:
            problems.append("screen bins must share one absorption time")
        screen_time = min(bin_times) if bin_times else None
        listed = {a.channel for a in spec.absorbers if a.channel in bin_channels}
        if listed != bin_channels:
            problems.append("screen bins and bin absorbers disagree")
    elif any(a.channel.startswith("bin") for a in spec.absorbers):
        problems.append("bin absorbers declared without a screen model")

    placed_positions: dict[str, tuple[str, SpacetimePoint]] = {}
    for i, rule in enumerate(spec.rules):
        trig = rule.trigger
        trig_time: float | None
        if isinstance(trig, TransactionFailed):
            trig_time = trig.time
            target = next((a for a in spec.absorbers if a.id == trig.absorber), None)
            if target is None:
                problems.append(f"rule {i} trigger references unknown absorber {trig.absorber!r}")
            elif target.position.t != trig.time:
                problems.append(
                    f"rule {i} trigger expects t={trig.time} but {trig.absorber!r} resolves at t={target.position.t}"
                )
        elif isinstance(trig, CoinOutcome):
            if spec.coin is None:
                problems.append(f"rule {i} trigger needs a coin but none is configured")
                trig_time = None
            else:
                if trig.label not in spec.coin.labels:
                    problems.append(f"rule {i} trigger references unknown coin label {trig.label!r}")
                trig_time = spec.coin.flip_time
        else:
            trig_time = spec.emission.t
        if trig_time is not None and rule.time <= trig_time:
            problems.append(
                f"retro-placement: rule {i} acts at t={rule.time} not after its trigger at t={trig_time}"
            )

        action = rule.action
        if isinstance(action, (PlaceAbsorber, DivertChannel)):
            aid = action.absorber if isinstance(action, PlaceAbsorber) else action.new_absorber
            if action.position.t < rule.time:
                problems.append(
                    f"retro-placement: rule {i} places {aid!r} at t={rule.time} after its absorption at t={action.position.t}"
                )
            if action.channel not in known_channels:
                problems.append(f"rule {i} acts on unknown channel {action.channel!r}")
            listed_cfg = next((a for a in spec.absorbers if a.id == aid), None)
            if listed_cfg is not None:
                if listed_cfg.initially_present:
                    problems.append(f"rule {i} re-places absorber {aid!r} that starts present")
                if (listed_cfg.channel, listed_cfg.position) != (action.channel, action.position):
                    problems.append(f"rule {i} places absorber {aid!r} inconsistently with its listed config")
            if aid in placed_positions and placed_positions[aid] != (action.channel, action.position):
                problems.append(f"rules place absorber {aid!r} at conflicting positions")
            placed_positions[aid] = (action.channel, action.position)
            if isinstance(action, PlaceAbsorber):
                if action.channel in per_channel:
                    problems.append(
                        f"rule {i} places {aid!r} on channel {action.channel!r} that already has an absorber"
                    )
            else:
                if action.channel not in per_channel:
                    problems.append(f"rule {i} diverts channel {action.channel!r} with no absorber")
            if screen_time is not None and action.position.t <= screen_time:
                problems.append(
                    f"rule {i} puts {aid!r} in front of the screen arrival at t={screen_time}"
                )
        else:
            if spec.screen is None:
                problems.append(f"rule {i} removes a screen but none is configured")

    # A NaN or infinite squared interval would rank its candidate anywhere
    # under hierarchy.  A non-finite time is refused on its own, at compile.
    points = [(f"absorber {a.id!r}", a.position) for a in spec.absorbers]
    points += [(f"rule {i} placement", r.action.position) for i, r in enumerate(spec.rules)
               if not isinstance(r.action, RemoveScreen)]
    for where, at in points:
        timed = math.isfinite(at.t) and at.t > spec.emission.t
        if timed and not math.isfinite(spacetime_interval2(spec.emission, at)):
            problems.append(f"{where}: squared interval from the emission is not finite")

    if spec.screen is not None and screen_time is not None:
        for a in spec.absorbers:
            if a.channel not in bin_channels and a.position.t <= screen_time:
                problems.append(
                    f"absorber {a.id!r} would absorb before the screen arrival at t={screen_time}"
                )

    if spec.coin is not None:
        coin = spec.coin
        if len(coin.labels) < 2 or len(set(coin.labels)) != len(coin.labels):
            problems.append("coin needs at least two distinct labels")
        if len(coin.weights) != len(coin.labels):
            problems.append("coin weights and labels differ in length")
        elif not all(0 <= w < math.inf for w in coin.weights) or abs(math.fsum(coin.weights) - 1.0) > 1e-12:
            problems.append("coin weights must be non-negative and sum to 1")
        if coin.flip_time <= spec.emission.t:
            problems.append("coin flips before emission")

    if problems:
        return problems

    # Branch coverage: walk the sequential decision structure and flag any
    # reachable branch that strands probability with no absorber to claim it.
    from .program import compile_program  # deferred: this module loads first

    try:
        program = compile_program(spec, ResolutionStrategy.SEQUENTIAL, True)
    except ValueError as e:
        problems.append(str(e))
    else:
        for leaf in program.leaves:
            if leaf.outcome == NO_OUTCOME and leaf.probability > 1e-9:
                branch = ",".join(leaf.conditions) or "root"
                problems.append(
                    f"incomplete coverage on branch [{branch}]: unresolved probability {leaf.probability:.6g}"
                )
    return problems


# -- answering basis ----------------------------------------------------------


def answer(spec: ExperimentSpec, responders: list[tuple[str, str, SpacetimePoint]]):
    """Incipient transactions formed by (absorber, channel, absorption point)
    responders answering together: screen bins answer in the screen basis,
    anything else its channel of the emitted state.  A responder whose channel
    the basis lacks (a telescope behind a standing screen) forms none."""
    on_screen = not spec.bin_channels().isdisjoint(ch for _aid, ch, _at in responders)
    basis = screen_amplitudes(spec.screen, spec.initial_state) if on_screen else spec.initial_state
    return confirm(spec.emission, basis, responders)


def initial_transactions(spec: ExperimentSpec):
    """Incipient transactions the initially present absorbers would form."""
    return answer(spec, [(a.id, a.channel, a.position) for a in spec.absorbers if a.initially_present])
