"""Labelled state vectors and the probability rules built on them.

States live on an explicit, ordered basis of channel labels.  Observables
are partitions of that basis into named outcome groups, so every projector
is diagonal in the chosen basis; measurements in a rotated basis are
expressed by rebasing the state first (see :func:`rebase`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

# Tolerance for exact-math identities (normalization, weight sums).
ATOL = 1e-12


def _checked_amplitude(value: complex) -> complex:
    a = complex(value)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError(f"amplitude must be finite, got {a!r}")
    return a


@dataclass(frozen=True, slots=True)
class StateVector:
    """Vector of complex amplitudes over an ordered basis of unique labels."""

    labels: tuple[str, ...]
    amps: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("empty basis")
        if len(self.labels) != len(self.amps):
            raise ValueError("labels and amplitudes differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "amps", tuple(_checked_amplitude(a) for a in self.amps))

    @classmethod
    def from_amplitudes(cls, amplitudes: Mapping[str, complex]) -> "StateVector":
        return cls(tuple(amplitudes.keys()), tuple(amplitudes.values()))

    def amp(self, label: str) -> complex:
        try:
            return self.amps[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None

    def norm2(self) -> float:
        return math.fsum((a.conjugate() * a).real for a in self.amps)

    def is_normalized(self, atol: float = ATOL) -> bool:
        return abs(self.norm2() - 1.0) <= atol


def normalize(state: StateVector) -> StateVector:
    """Scale to unit norm.  A state of norm 0 (within tolerance) is rejected."""
    norm = math.sqrt(state.norm2())
    if norm <= ATOL:
        raise ValueError("null state")
    if abs(norm - 1.0) <= ATOL:
        return state
    return StateVector(state.labels, tuple(a / norm for a in state.amps))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.labels != b.labels:
        raise ValueError("basis mismatch")
    return sum((x.conjugate() * y for x, y in zip(a.amps, b.amps)), 0j)


@dataclass(frozen=True, slots=True)
class Observable:
    """Named partition of basis labels; each group is one projector."""

    names: tuple[str, ...]
    groups: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.names or len(self.names) != len(self.groups):
            raise ValueError("names and groups differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate outcome names")
        seen: set[str] = set()
        for name, group in zip(self.names, self.groups):
            if not group:
                raise ValueError(f"empty outcome group {name!r}")
            for label in group:
                if label in seen:
                    raise ValueError(f"label {label!r} appears in more than one group")
                seen.add(label)

    @classmethod
    def from_groups(cls, groups: Mapping[str, Iterable[str]]) -> "Observable":
        return cls(tuple(groups.keys()), tuple(tuple(g) for g in groups.values()))

    @classmethod
    def per_label(cls, labels: Iterable[str]) -> "Observable":
        """One singleton outcome per basis label, named by the label itself."""
        labels = tuple(labels)
        return cls(labels, tuple((l,) for l in labels))

    def group(self, name: str) -> tuple[str, ...]:
        try:
            return self.groups[self.names.index(name)]
        except ValueError:
            raise KeyError(f"unknown outcome group {name!r}") from None

    def covered_labels(self) -> frozenset[str]:
        return frozenset(l for g in self.groups for l in g)


def _require_partition_of(state: StateVector, observable: Observable) -> None:
    if observable.covered_labels() != set(state.labels):
        raise ValueError("observable does not partition the state's basis")


def _require_normalized(state: StateVector) -> None:
    # Weights are only probabilities on a unit vector; 1e-9 leaves room for
    # states assembled from rounded literals.
    if abs(state.norm2() - 1.0) > 1e-9:
        raise ValueError("state not normalized")


def complete_weights(state: StateVector, observable: Observable) -> dict[str, float]:
    """Probability weight of every outcome group: the sum of |amplitude|^2
    over its labels.  The weights sum to 1 within tolerance."""
    _require_partition_of(state, observable)
    _require_normalized(state)
    return {
        name: math.fsum((state.amp(l).conjugate() * state.amp(l)).real for l in group)
        for name, group in zip(observable.names, observable.groups)
    }


@dataclass(frozen=True, slots=True)
class PrePostEnsemble:
    """A pre-selected and a post-selected state on the same basis."""

    pre: StateVector
    post: StateVector

    def __post_init__(self) -> None:
        if self.pre.labels != self.post.labels:
            raise ValueError("pre and post states live on different bases")
        if abs(inner_product(self.post, self.pre)) == 0.0:
            raise ValueError("vanishing pre/post overlap")


def abl_probability(ensemble: PrePostEnsemble, observable: Observable, outcome: str) -> float:
    """Conditional probability of an intermediate outcome between pre- and
    post-selection:

        P(g) = |<post| P_g |pre>|^2 / sum_k |<post| P_k |pre>|^2

    For diagonal projectors each matrix element reduces to a partial overlap
    over the group's labels.
    """
    pre, post = ensemble.pre, ensemble.post
    _require_partition_of(pre, observable)

    def element(group: tuple[str, ...]) -> complex:
        return sum((post.amp(l).conjugate() * pre.amp(l) for l in group), 0j)

    numerators = {name: abs(element(g)) ** 2 for name, g in zip(observable.names, observable.groups)}
    denominator = math.fsum(numerators.values())
    if denominator <= 1e-300:
        raise ValueError("impossible pre/post pair for this observable")
    if outcome not in numerators:
        raise KeyError(f"unknown outcome group {outcome!r}")
    return numerators[outcome] / denominator


def rebase(state: StateVector, basis: Mapping[str, StateVector]) -> StateVector:
    """Re-express a state in an orthonormal basis given as label -> vector.

    Amplitude on the new label is <basis vector|state>.  Orthonormality of
    the supplied vectors is the caller's responsibility.
    """
    return StateVector.from_amplitudes(
        {name: inner_product(vec, state) for name, vec in basis.items()}
    )
