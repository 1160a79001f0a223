"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its ``random.Random``: the same
workload seed gives the same specs.  Each generated spec is checked with
:func:`checked_document` before a workload may use it.
"""
from __future__ import annotations

import json
import math
import random

from tqsim import experiments as xp
from tqsim.engine import SpacetimePoint
from tqsim.quantum import StateVector

CASCADE_CHANNELS = 8
WIDE_BINS = 401


def cascade_spec(rng: random.Random) -> xp.ExperimentSpec:
    """8 equal-weight channels, one absorber each, absorbing at t = 1..8.

    No rules, so every strategy compiles it: ``sequential`` grows a depth-7
    chain (7 draws, padded to 8), ``global-echo`` and ``hierarchy`` a single
    8-way split.  The seed picks which channel absorbs at which time and
    where each absorber sits inside the light cone; absorption times are
    distinct, so the hierarchy ranking never ties.
    """
    channels = [f"c{i}" for i in range(CASCADE_CHANNELS)]
    amp = complex(math.sqrt(1.0 / CASCADE_CHANNELS))
    order = rng.sample(channels, len(channels))
    absorbers = tuple(
        xp.AbsorberConfig(f"D{t}", ch, SpacetimePoint(float(t), round(rng.uniform(-0.9, 0.9) * t, 6)))
        for t, ch in enumerate(order, start=1)
    )
    return xp.ExperimentSpec(
        name="cascade",
        emission=SpacetimePoint(0.0, 0.0),
        initial_state=StateVector(tuple(channels), (amp,) * len(channels)),
        absorbers=absorbers,
    )


def wide_screen_spec(rng: random.Random, bins: int = WIDE_BINS) -> xp.ExperimentSpec:
    """The dce-keep arrangement rebuilt on a ``bins``-bin screen.

    The screen model, its bin absorbers and the telescopes are all built
    afresh; the span grows with the bin count so the bin width stays that of
    the bundled 201-bin screen.  The seed jitters the slit separation and
    wavelength (moving the fringes) and the bin and telescope positions.
    """
    base = xp.dce_spec(xp.DceMode.ALWAYS_KEEP)
    screen = xp.ScreenModel(
        slit_separation=round(base.screen.slit_separation * rng.uniform(0.9, 1.1), 6),
        wavelength=round(base.screen.wavelength * rng.uniform(0.9, 1.1), 6),
        distance=base.screen.distance,
        bins=bins,
        span=base.screen.span * bins / base.screen.bins,
    )
    screen_x = round(rng.uniform(-2.0, 2.0), 6)
    bin_absorbers = tuple(
        xp.AbsorberConfig(label, label, SpacetimePoint(2.0, screen_x))
        for label in screen.bin_labels()
    )
    telescopes = (
        xp.AbsorberConfig("TA", "slitA", SpacetimePoint(3.0, round(rng.uniform(2.0, 2.9), 6))),
        xp.AbsorberConfig("TB", "slitB", SpacetimePoint(3.0, round(rng.uniform(-2.9, -2.0), 6))),
    )
    return xp.ExperimentSpec(
        name=f"dce-keep-{bins}",
        emission=base.emission,
        initial_state=base.initial_state,
        absorbers=bin_absorbers + telescopes,
        screen=screen,
    )


def checked_document(spec: xp.ExperimentSpec) -> str:
    """The spec's JSON document, after proving it valid and round-tripping.

    Raises ``ValueError`` when ``validate_spec`` reports a problem or when
    ``spec_to_document`` -> ``load_spec`` does not give back an equal spec.
    """
    problems = xp.validate_spec(spec)
    if problems:
        raise ValueError(f"generated spec {spec.name!r} is invalid: {'; '.join(problems)}")
    text = json.dumps(xp.spec_to_document(spec), indent=2)
    if xp.load_spec(text, validate=False) != spec:
        raise ValueError(f"generated spec {spec.name!r} does not round-trip")
    return text
