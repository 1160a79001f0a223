"""Every tally a run's payload reports against its exact law.

A tally key (an outcome, a (condition, outcome) pair, an emitter state, a
screen bin) counts the trials landing in a fixed set of leaves, so its count
is Binomial(n, p), with p the key's law from ``TrialProgram.tally`` over the
leaf probabilities.  The bound below is Bernstein's, as ``bench/checks.py``
uses it; it is restated here so that the tests do not lean on the benchmark.
"""
import math

import pytest

from tqsim import (
    AbsorberConfig,
    CoinConfig,
    CoinOutcome,
    ContingencyRule,
    ExperimentSpec,
    PlaceAbsorber,
    RunConfig,
    SpacetimePoint,
    StateVector,
    builtin_spec,
    compile_program,
    dce_spec,
    outcome_distribution,
    run_experiment,
    run_payload,
    validate_spec,
)
from tqsim.engine import COVERAGE_ATOL, StrategyError
from tqsim.experiments import BUILTIN_EXPERIMENTS

# Per-key false-alarm probability.  A run has a few hundred keys, and this
# file checks a few dozen runs, so a correct program trips a bound with
# probability well below 1e-5.
FALSE_ALARM = 1e-9
_T = math.log(2.0 / FALSE_ALARM)
TRIALS = 200_000


def count_bound(n: int, p: float) -> float:
    """Largest |count - n*p| a Binomial(n, p) count shows, bar FALSE_ALARM.

    Bernstein: P(|X - np| >= x) <= 2*exp(-x^2 / (2*(var + x/3))); solving for
    the x where that is FALSE_ALARM.  Unlike a z-bound it holds for the
    sparse bins at fringe minima, where n*p is far below 1.
    """
    var = n * p * (1.0 - p)
    return _T / 3.0 + math.sqrt(_T * _T / 9.0 + 2.0 * var * _T)


def count_problems(field: str, counts: dict, n: int, law: dict) -> list[str]:
    """Problems with one field's counts from n trials under its law."""
    problems = []
    for key in sorted(set(counts) | set(law)):
        c, p = counts.get(key, 0), law.get(key, 0.0)
        if abs(c - n * p) > count_bound(n, p) or (p == 0.0 and c):
            problems.append(f"{field} {key}: count {c} vs expected {n * p:.1f}")
    return problems


def payload_problems(spec, payload: dict, law: dict) -> list[str]:
    """Problems with every tally in ``payload`` under ``law``, the tree's
    ``tally`` of its leaf probabilities."""
    n = payload["trials"]
    consistency = payload["consistency"]
    problems = []
    if consistency["bilking_violations"] or consistency["emitter_state_outcome_mismatches"]:
        problems.append(f"audit not clean: {consistency}")
    if consistency["weight_sum_max_error"] > COVERAGE_ATOL:
        problems.append(f"weights do not sum to 1: {consistency}")
    outcomes = {o: f["count"] for o, f in payload["frequencies"].items()}
    if sum(outcomes.values()) != n:
        problems.append(f"outcome counts sum to {sum(outcomes.values())}, not {n}")
    conditionals = {
        (condition, o): f["count"]
        for condition, bucket in payload["conditionals"].items()
        for o, f in bucket["outcomes"].items()
    }
    emitter_states = {label: f["count"] for label, f in payload["emitter_states"].items()}
    problems += count_problems("outcome", outcomes, n, law["outcomes"])
    problems += count_problems("conditional", conditionals, n, law["conditionals"])
    problems += count_problems("emitter state", emitter_states, n, law["emitter_states"])
    bins = spec.screen.bin_labels() if spec.screen else ()
    if any(b in law["outcomes"] for b in bins):
        hist = payload["histogram"]
        if hist is None or len(hist["counts"]) != len(bins):
            return problems + ["no histogram of every bin"]
        problems += count_problems("bin", dict(zip(bins, hist["counts"])), n,
                                   {b: law["outcomes"].get(b, 0.0) for b in bins})
    elif payload["histogram"] is not None:
        problems.append("a histogram without a bin outcome")
    return problems


def admissible_pairs():
    pairs = []
    for name in BUILTIN_EXPERIMENTS:
        for strategy in ("sequential", "global-echo", "hierarchy"):
            try:
                compile_program(builtin_spec(name), strategy)
            except StrategyError:
                continue
            pairs.append((name, strategy))
    return pairs


def run_and_law(spec, strategy: str, trials: int, seed: int):
    config = RunConfig(trials, seed, strategy=strategy)
    table, report = run_experiment(spec, config)
    program = compile_program(spec, strategy)
    law = program.tally([leaf.probability for leaf in program.leaves])
    return run_payload(spec, config, table, report), law


def test_every_builtin_pair_is_checked():
    assert len(admissible_pairs()) == 9


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name,strategy", admissible_pairs())
def test_every_payload_tally_fits_its_law(name, strategy, seed):
    spec = builtin_spec(name)
    payload, law = run_and_law(spec, strategy, TRIALS, seed)
    assert payload_problems(spec, payload, law) == []


def test_the_check_flags_a_wrong_law():
    # The largest and smallest outcome probabilities swapped.
    spec = dce_spec("coinflip")
    payload, law = run_and_law(spec, "sequential", TRIALS, 1)
    outcomes = law["outcomes"]
    hi, lo = max(outcomes, key=outcomes.get), min(outcomes, key=outcomes.get)
    outcomes[hi], outcomes[lo] = outcomes[lo], outcomes[hi]
    problems = payload_problems(spec, payload, law)
    assert any(p.startswith(f"outcome {hi}:") for p in problems)
    assert any(p.startswith(f"outcome {lo}:") for p in problems)


def test_an_outcome_of_probability_zero_stays_in_the_law_but_not_in_the_tables():
    # The coin-rules layout of the golden tests on a coin that never shows "down".
    at = SpacetimePoint
    spec = ExperimentSpec(
        name="sure-coin",
        emission=at(0.0, 0.0),
        initial_state=StateVector(("R", "L"), (complex(math.sqrt(0.5)),) * 2),
        absorbers=(
            AbsorberConfig("A", "R", at(3.0, 1.0)),
            AbsorberConfig("B", "L", at(2.0, -1.0), initially_present=False),
            AbsorberConfig("C", "L", at(4.0, -2.0), initially_present=False),
        ),
        rules=(
            ContingencyRule(CoinOutcome("up"), PlaceAbsorber("B", "L", at(2.0, -1.0)), 1.0),
            ContingencyRule(CoinOutcome("down"), PlaceAbsorber("C", "L", at(4.0, -2.0)), 1.0),
        ),
        coin=CoinConfig(("up", "down"), (1.0, 0.0), 0.5),
    )
    assert validate_spec(spec) == []
    assert outcome_distribution(spec, "sequential")["C"] == 0.0
    table, _report = run_experiment(spec, RunConfig(1_000, 1))
    assert "C" not in table.counts
    assert "coin:down" not in table.conditional_counts
    assert table.conditional_counts["coin:up"] == table.counts


def test_a_run_that_never_reaches_the_screen_still_has_its_histogram():
    spec = dce_spec("coinflip")
    for seed in range(100):
        table, _report = run_experiment(spec, RunConfig(1, seed))
        if set(table.counts) <= {"TA", "TB"}:
            break
    else:
        pytest.fail("no one-trial run landed on a telescope")
    assert table.histogram.counts == (0,) * spec.screen.bins == (0,) * 201
