"""The exact law of the compiled tree against the Born rule (``born.py``)."""
import ast
import importlib.util
import random
from pathlib import Path

import pytest

from born import born_law
from test_golden import HAND_BUILT_CASES, _hand_built
from tqsim import BUILTIN_EXPERIMENTS, builtin_spec, outcome_distribution
from tqsim.engine import DEGENERATE, StrategyError

TESTS = Path(__file__).resolve().parent
STRATEGIES = ("sequential", "global-echo", "hierarchy")


def bench_specs():
    spec = importlib.util.spec_from_file_location("bench_specs", TESTS.parent / "bench" / "specs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases():
    """(id, spec, strategy, tie_break): the builtins, the hand-built layouts,
    five bench cascades and two wide screens."""
    found = [(name, builtin_spec(name), s, True) for name in BUILTIN_EXPERIMENTS for s in STRATEGIES]
    layouts = _hand_built()
    found += [(name, layouts[name], s, tb) for name, pairs in HAND_BUILT_CASES.items() for s, tb in pairs]
    specs = bench_specs()
    found += [(f"cascade{seed}", specs.cascade_spec(random.Random(seed)), s, True)
              for seed in range(5) for s in STRATEGIES]
    found += [(f"screen{bins}", specs.wide_screen_spec(random.Random(0), bins), s, True)
              for bins in (101, 401) for s in ("sequential", "global-echo")]
    return found


def admissible_laws():
    """Each case's exact law, leaving out the pairs a strategy refuses."""
    laws = []
    for name, spec, strategy, tie_break in cases():
        try:
            law = outcome_distribution(spec, strategy, tie_break)
        except StrategyError:
            continue
        laws.append((f"{name}/{strategy}/{tie_break}", spec, law))
    return laws


def test_the_oracle_imports_no_tree_code():
    tree = ast.parse((TESTS / "born.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported <= {"math", "tqsim.engine", "tqsim.experiments", "tqsim.quantum"}


def test_only_the_unrankable_layouts_fall_outside_the_oracle():
    # Fully degenerate: equal intervals that the hierarchy cannot rank.
    outside = sorted(name for name, _spec, law in admissible_laws() if DEGENERATE in law)
    assert outside == ["dce-keep/hierarchy/True", "dce-remove/hierarchy/True", "photon-pair/hierarchy/False"]
    assert all(law == {DEGENERATE: 1.0} for _name, _spec, law in admissible_laws() if DEGENERATE in law)


@pytest.mark.parametrize(
    "spec,law",
    [pytest.param(spec, law, id=name) for name, spec, law in admissible_laws() if DEGENERATE not in law],
)
def test_exact_law_is_the_born_rule(spec, law):
    born = born_law(spec)
    assert max(abs(born.get(k, 0.0) - law.get(k, 0.0)) for k in set(born) | set(law)) <= 1e-12
