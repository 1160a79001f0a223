"""Output checks: every count a run reports is tested against the exact law.

The exact law comes from ``outcome_distribution``, whose leaf probabilities
sum exactly, so the checks do not depend on the bytes a particular random
stream produces: any correct stream passes and a wrong law is caught.
"""
from __future__ import annotations

import json
import math
from typing import Mapping

# Per-outcome false-alarm probability of the count bound below.  With a few
# hundred outcomes per call and a few thousand calls per run, the chance
# that a correct program ever trips the bound stays below 1e-3.
FALSE_ALARM = 1e-9
_T = math.log(2.0 / FALSE_ALARM)


def count_bound(n: int, p: float) -> float:
    """Largest |count - n*p| a correct run of n trials shows, bar FALSE_ALARM.

    Bernstein's inequality for a Binomial(n, p) count: the deviation x is
    exceeded with probability at most 2*exp(-x^2 / (2*(var + x/3))).  For
    large counts this is a z-bound of sqrt(2*ln(2/FALSE_ALARM)) ~ 6.5 sigma;
    unlike a plain z-bound it stays valid for the sparse bins at fringe
    minima, where n*p is far below 1.
    """
    var = n * p * (1.0 - p)
    return _T / 3.0 + math.sqrt(_T * _T / 9.0 + 2.0 * var * _T)


def law_problems(counts: Mapping[str, int], n_trials: int, law: Mapping[str, float]) -> list[str]:
    """Problems with outcome counts from ``n_trials`` trials under ``law``."""
    problems = []
    total = sum(counts.values())
    if total != n_trials:
        problems.append(f"counts sum to {total}, not {n_trials}")
    for outcome in sorted(set(counts) | set(law)):
        c = counts.get(outcome, 0)
        p = law.get(outcome, 0.0)
        if p == 0.0:
            if c:
                problems.append(f"{outcome}: {c} trials on an outcome of probability 0")
            continue
        dev = c - n_trials * p
        if abs(dev) > count_bound(n_trials, p):
            problems.append(f"{outcome}: count {c} vs expected {n_trials * p:.1f}")
    return problems


def table_problems(table, report, law: Mapping[str, float]) -> list[str]:
    """Problems with one ``run_experiment`` result."""
    problems = [] if report.clean() else [f"consistency report not clean: {report}"]
    return problems + law_problems(table.counts, table.n_trials, law)


def payload_problems(text: str, n_trials: int, bins: int, law: Mapping[str, float]) -> list[str]:
    """Problems with the JSON payload one ``sim run`` printed."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"payload does not parse: {e}"]
    if payload.get("trials") != n_trials:
        return [f"payload reports {payload.get('trials')} trials, not {n_trials}"]
    hist = payload.get("histogram") or {}
    problems = []
    if len(hist.get("counts", ())) != bins or len(hist.get("bin_centers", ())) != bins:
        problems.append(f"histogram length is not {bins}")
    consistency = payload.get("consistency", {})
    if consistency.get("bilking_violations") or consistency.get("emitter_state_outcome_mismatches"):
        problems.append(f"consistency audit not clean: {consistency}")
    counts = {o: f["count"] for o, f in payload.get("frequencies", {}).items()}
    return problems + law_problems(counts, n_trials, law)
