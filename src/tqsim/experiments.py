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
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from types import SimpleNamespace
from typing import Any, Callable, Mapping, NamedTuple

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
    """An experiment document failed to parse or validate.  Its arguments
    are the problems found, and its message is the first."""

    def __str__(self) -> str:
        return str(self.args[0])


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
        for name in (f.name for f in fields(self) if f.name != "bins"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def bin_width(self) -> float:
        return self.span / self.bins

    def bin_centers(self) -> np.ndarray:
        offsets = np.arange(self.bins) - (self.bins - 1) / 2
        return offsets * self.bin_width

    @lru_cache(maxsize=64)
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


@lru_cache(maxsize=64)
def screen_amplitudes(model: ScreenModel, state: StateVector) -> StateVector:
    """Re-express a two-channel state in the screen's bin basis.

    Each bin amplitude sums the channel amplitudes propagated over their
    path lengths; the result is normalized over bins, memoised and immutable.
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
#
# One table per document block.  A row gives a document key, its kind, its
# default (REQUIRED when the key must be given; a None default also takes a
# null) and the field it fills, if not the key.  A kind reads one value
# (_number, ...), or is a nested _Block, a table of blocks keyed by the entry's
# "kind", or a _List of blocks; a block row with no key reads its keys from the
# enclosing object.  load_spec and spec_to_document walk the same rows, each on
# an explicit stack.

REQUIRED = object()


class _Row(NamedTuple):
    key: str | int | None
    kind: Any
    default: Any = REQUIRED
    field: str | None = None


class _Block(NamedTuple):
    make: Callable[..., Any]  # takes the rows' fields by keyword
    rows: tuple[_Row, ...] = ()


class _List(NamedTuple):
    """A JSON list of ``block`` entries: ``make`` builds the field from the
    loaded entries, and ``entries`` splits a field back into them."""

    block: _Block
    expected: str = "a list"
    nonempty: bool = False
    make: Callable[[tuple], Any] = tuple
    entries: Callable[[Any], tuple] = tuple


def _state(entries: tuple[SimpleNamespace, ...]) -> StateVector:
    amps = tuple(complex(e.re, e.im) for e in entries)
    return normalize(StateVector(tuple(e.channel for e in entries), amps))


def _amplitudes(state: StateVector) -> tuple[SimpleNamespace, ...]:
    return tuple(SimpleNamespace(channel=c, re=a.real, im=a.imag) for c, a in zip(state.labels, state.amps))


def _fail(where: str, message: str) -> SpecError:
    return SpecError(f"{where}: {message}")


def _number(v: Any, where: str, key: str, name: str = "") -> float:
    name = name or f"field {key!r}"
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


def _numbers(v: Any, where: str, key: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise _fail(where, f"field {key!r} must be a list of numbers")
    return tuple(_number(w, where, key, f"{key}[{j}]") for j, w in enumerate(v))


def _checked(test: Callable[[Any], bool], expected: str, convert: Callable[[Any], Any] = lambda v: v):
    """A reader that refuses a value failing ``test`` as not ``expected``."""
    def read(v: Any, where: str, key: str) -> Any:
        if not test(v):
            raise _fail(where, f"field {key!r} must be {expected}")
        return convert(v)
    return read


_string = _checked(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_boolean = _checked(lambda v: isinstance(v, bool), "a boolean")
_integer = _checked(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_strings = _checked(lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings", tuple)

_POINT = _Block(SpacetimePoint, (_Row("t", _number), _Row("x", _number)))
_POSITION = _Row(None, _POINT, field="position")
_STATE_ENTRY = _Block(SimpleNamespace, (_Row("channel", _string), _Row("re", _number), _Row("im", _number, 0.0)))
_ABSORBER = _Block(AbsorberConfig, (
    _Row("id", _string), _Row("channel", _string), _POSITION, _Row("present", _boolean, True, "initially_present"),
))
_TRIGGERS = {
    "always": _Block(Always),
    "transaction-failed": _Block(TransactionFailed, (
        _Row("id", _string, field="absorber"), _Row("t", _number, field="time"),
    )),
    "coin-outcome": _Block(CoinOutcome, (_Row("label", _string),)),
}
_ACTIONS = {
    "place": _Block(PlaceAbsorber, (_Row("id", _string, field="absorber"), _Row("channel", _string), _POSITION)),
    "divert": _Block(DivertChannel, (_Row("channel", _string), _Row("id", _string, field="new_absorber"), _POSITION)),
    "remove-screen": _Block(RemoveScreen),
}
_RULE = _Block(ContingencyRule, (_Row("trigger", _TRIGGERS), _Row("action", _ACTIONS), _Row("time", _number)))
_COIN = _Block(CoinConfig, (_Row("labels", _strings), _Row("weights", _numbers), _Row("flip_time", _number)))
_SCREEN = _Block(ScreenModel, (
    _Row("d", _number, field="slit_separation"),
    _Row("lambda", _number, field="wavelength"),
    _Row("L", _number, field="distance"),
    _Row("bins", _integer),
    _Row("span", _number),
))
_AMPLITUDES = _List(_STATE_ENTRY, "a non-empty list of channel amplitudes", True, _state, _amplitudes)
_DOCUMENT = _Block(ExperimentSpec, (
    _Row("name", _string),
    _Row("emission", _POINT),
    _Row("state", _AMPLITUDES, field="initial_state"),
    _Row("absorbers", _List(_ABSORBER)),
    _Row("rules", _List(_RULE), ()),
    _Row("coin", _COIN, None),
    _Row("screen", _SCREEN, None),
))


def _check_keys(obj: Any, where: str, block: _Block) -> None:
    if not isinstance(obj, Mapping):
        raise _fail(where, "expected an object")
    rows = [r for row in block.rows for r in (row.kind.rows if row.key is None else (row,))]
    unknown = set(obj) - {r.key for r in rows}
    if unknown:
        raise _fail(where, f"unknown field(s) {sorted(unknown, key=str)}")  # a Mapping may mix key types
    missing = {r.key for r in rows if r.default is REQUIRED} - set(obj)
    if missing:
        raise _fail(where, f"missing field(s) {sorted(missing)}")


def _read(doc: Any) -> ExperimentSpec:
    """Read a parsed document row by row, depth first.  A frame reads one
    block or list: its rows left, the object they are read from, its location,
    the values read so far, its kind, and the values and name its own value
    fills once every row is read."""
    _check_keys(doc, "document", _DOCUMENT)
    done: dict[str, Any] = {}
    stack = [(iter(_DOCUMENT.rows), doc, "document", {}, _DOCUMENT, done, "spec")]
    while stack:
        rows, obj, where, values, container, into, name = stack[-1]
        row = next(rows, None)
        if row is None:
            stack.pop()
            make = container.make
            try:
                into[name] = make(tuple(values.values())) if isinstance(container, _List) else make(**values)
            except ValueError as e:
                raise _fail(where, str(e)) from None
            continue
        kind, name = row.kind, row.field or row.key
        if row.key is None:  # an inline block: its keys were checked with obj's
            stack.append((iter(kind.rows), obj, where, {}, kind, values, name))
            continue
        if row.key not in obj or obj[row.key] is None and row.default is None:
            values[name] = row.default
            continue
        value = obj[row.key]
        at = f"{where}[{row.key}]" if isinstance(row.key, int) else f"{where}.{row.key}".removeprefix("document.")
        if isinstance(kind, dict):  # a table of blocks keyed by the entry's "kind"
            if not isinstance(value, Mapping) or "kind" not in value:
                raise _fail(at, f"{row.key} needs a 'kind'")
            tag = value["kind"]
            kind = kind.get(tag) if isinstance(tag, str) else None
            if kind is None:
                raise _fail(at, f"unknown {row.key} kind {tag!r}")
            value = {k: v for k, v in value.items() if k != "kind"}
        if isinstance(kind, _List):
            if not isinstance(value, list) or kind.nonempty and not value:
                raise _fail(at, f"expected {kind.expected}")
            entries = [_Row(i, kind.block) for i in range(len(value))]
            stack.append((iter(entries), dict(enumerate(value)), at, {}, kind, values, name))
        elif isinstance(kind, _Block):
            _check_keys(value, at, kind)
            stack.append((iter(kind.rows), value, at, {}, kind, values, name))
        else:
            values[name] = kind(value, where, row.key)
    return done["spec"]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


def load_spec(source: str | bytes | Mapping[str, Any], validate: bool = True) -> ExperimentSpec:
    """Build a spec from a JSON document (text or parsed mapping).

    Unknown and duplicate fields are rejected, state amplitudes are normalized
    on load, and (unless ``validate`` is off) the full consistency checks run;
    any failure raises :class:`SpecError` locating the offending entry.
    """
    doc = source
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as e:
            # ValueError covers malformed JSON, undecodable bytes, duplicate fields
            # and over-long integer literals; RecursionError an over-deep document.
            raise SpecError(f"parse error: {e}") from None
    spec = _read(doc)
    if validate:
        problems = validate_spec(spec)
        if problems:
            raise SpecError("; ".join(problems))
    return spec


def spec_to_document(spec: ExperimentSpec) -> dict[str, Any]:
    """Render a spec back to its JSON document form (round-trips with load).

    A stack entry is a row, the object holding its field, and the output
    object; rows are pushed last first, so keys come out in table order."""
    doc: dict[str, Any] = {}
    stack = [(row, spec, doc) for row in reversed(_DOCUMENT.rows)]
    while stack:
        row, obj, out = stack.pop()
        kind, value = row.kind, getattr(obj, row.field or row.key)
        if row.default in (None, ()) and value == row.default:
            continue  # an absent optional block is left out
        if isinstance(kind, dict):
            tag = next((tag for tag, block in kind.items() if isinstance(value, block.make)), None)
            if tag is None:
                raise TypeError(f"unknown {row.key} {value!r}")
            kind, out[row.key] = kind[tag], {"kind": tag}
        if isinstance(kind, _List):
            entries = kind.entries(value)
            out[row.key] = [{} for _ in entries]
            for entry, entry_out in reversed(list(zip(entries, out[row.key]))):
                stack.extend((r, entry, entry_out) for r in reversed(kind.block.rows))
        elif isinstance(kind, _Block):
            block_out = out if row.key is None else out.setdefault(row.key, {})
            stack.extend((r, value, block_out) for r in reversed(kind.rows))
        else:
            out[row.key] = list(value) if isinstance(value, tuple) else value
    return doc


# -- validation ---------------------------------------------------------------


def spec_problems(spec: ExperimentSpec) -> list[str]:
    """Every static consistency check: normalization, channel coverage,
    duplicate or conflicting placements, screen/bin consistency, the causal
    order of every rule (no retro-placement), a squared interval that is not
    finite, and coin labels and weights.  Returns the problems found (empty =
    ok).  :func:`~tqsim.program.compile_program` refuses a spec with any."""
    # Events are matched by exact time, so an event at NaN would never be
    # consumed and the walk would never end; and every check below compares
    # times.  A spec built in Python may hold one (load_spec refuses it).
    located = [(f"absorber {a.id!r}", a.position) for a in spec.absorbers]
    located += [(f"rule {i} placement", r.action.position) for i, r in enumerate(spec.rules)
                if not isinstance(r.action, RemoveScreen)]
    times = [("emission", spec.emission.t)] + [(where, at.t) for where, at in located]
    for i, rule in enumerate(spec.rules):
        times.append((f"rule {i}", rule.time))
        if isinstance(rule.trigger, TransactionFailed):
            times.append((f"rule {i} trigger", rule.trigger.time))
    if spec.coin is not None:
        times.append(("coin", spec.coin.flip_time))
    problems = [f"{where}: time must be a finite number" for where, t in times if not math.isfinite(t)]
    if problems:
        return problems

    state = spec.initial_state
    if not state.is_normalized(atol=1e-9):
        problems.append("state not normalized")
    if spec.screen is not None and spec.screen.bins > len(spec.absorbers):
        # Every bin needs an absorber; checked before the label per bin below.
        return problems + ["screen bins and bin absorbers disagree"]

    bin_channels = spec.bin_channels()
    known_channels = set(state.labels) | bin_channels

    by_id: dict[str, AbsorberConfig] = {}  # the first config of each id
    for a in spec.absorbers:
        if a.id in by_id:
            problems.append(f"duplicate absorber id {a.id!r}")
        by_id.setdefault(a.id, a)
        if a.channel not in known_channels:
            problems.append(f"absorber {a.id!r} on unknown channel {a.channel!r}")
        if a.position.t <= spec.emission.t:
            problems.append(f"absorber {a.id!r} absorbs before emission")

    present = Counter(a.channel for a in spec.absorbers if a.initially_present)
    problems += [f"two absorbers on channel {ch!r} simultaneously present" for ch, n in present.items() if n > 1]
    occupied = set(present)

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
            target = by_id.get(trig.absorber)
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
            listed_cfg = by_id.get(aid)
            if listed_cfg is not None:
                if listed_cfg.initially_present:
                    problems.append(f"rule {i} re-places absorber {aid!r} that starts present")
                if (listed_cfg.channel, listed_cfg.position) != (action.channel, action.position):
                    problems.append(f"rule {i} places absorber {aid!r} inconsistently with its listed config")
            if aid in placed_positions and placed_positions[aid] != (action.channel, action.position):
                problems.append(f"rules place absorber {aid!r} at conflicting positions")
            placed_positions[aid] = (action.channel, action.position)
            if isinstance(action, PlaceAbsorber) and action.channel in occupied:
                problems.append(
                    f"rule {i} places {aid!r} on channel {action.channel!r} that already has an absorber"
                )
            elif isinstance(action, DivertChannel) and action.channel not in occupied:
                problems.append(f"rule {i} diverts channel {action.channel!r} with no absorber")
            if screen_time is not None and action.position.t <= screen_time:
                problems.append(
                    f"rule {i} puts {aid!r} in front of the screen arrival at t={screen_time}"
                )
        elif spec.screen is None:
            problems.append(f"rule {i} removes a screen but none is configured")

    # A NaN or infinite squared interval would rank its candidate anywhere
    # under hierarchy.
    problems += [
        f"{where}: squared interval from the emission is not finite"
        for where, at in located
        if at.t > spec.emission.t and not math.isfinite(spacetime_interval2(spec.emission, at))
    ]

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

    return problems


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Every problem of a spec (empty = ok): the static checks of
    :func:`spec_problems`, then, once they pass, any branch of the
    sequential tree that leaves probability unanswered, and any refusal
    only the tree's growth can see."""
    from .program import compile_program  # deferred: this module loads first

    try:
        program = compile_program(spec, ResolutionStrategy.SEQUENTIAL, True)
    except SpecError as e:  # the static checks refused it
        return list(e.args)
    except ValueError as e:
        return [str(e)]
    return [
        f"incomplete coverage on branch [{','.join(leaf.conditions) or 'root'}]:"
        f" unresolved probability {leaf.probability:.6g}"
        for leaf in program.leaves
        if leaf.outcome == NO_OUTCOME and leaf.probability > 1e-9
    ]


# -- answering basis ----------------------------------------------------------


def initial_transactions(spec: ExperimentSpec):
    """Incipient transactions the initially present absorbers would form,
    answering together: screen bins answer in the screen basis, anything
    else its channel of the emitted state.  A responder whose channel the
    basis lacks (a telescope behind a standing screen) forms none."""
    responders = [(a.id, a.channel, a.position) for a in spec.absorbers if a.initially_present]
    on_screen = not spec.bin_channels().isdisjoint(ch for _aid, ch, _at in responders)
    basis = screen_amplitudes(spec.screen, spec.initial_state) if on_screen else spec.initial_state
    return confirm(spec.emission, basis, responders)
