"""The names the benchmark in ``bench/`` reaches into tqsim through.

The benchmark traces tqsim from outside by swapping module attributes, so a
refactor that moves one of them would break traced runs without failing any
other test.
"""
import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from test_cli import chain_doc
from tqsim import ResolutionStrategy, dce_spec, experiments, load_spec, maudlin_spec, montecarlo, program

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def tracing_boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def traced_boundaries():
    return [(module_name, attr) for module_name, attr, _span, _counter in tracing_boundaries()]


@pytest.mark.parametrize("module_name,attr", traced_boundaries())
def test_traced_boundary_is_a_callable_attribute(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def bench_names():
    """(module, name) for each tqsim name the workloads and bench specs use:
    imported from a tqsim module, or read off one as an attribute."""
    names = set()
    for source in ("workloads.py", "specs.py"):
        tree = ast.parse((BENCH / source).read_text())
        modules = {}  # local alias -> tqsim module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tqsim":
                for alias in node.names:
                    try:
                        submodule = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        names.add((node.module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = submodule.__name__
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names.add((modules[node.value.id], node.attr))
    return sorted(names)


def test_bench_names_cover_the_spec_builders():
    experiments = {
        "dce_coinflip_spec", "dce_spec", "DceMode", "maudlin_spec", "miller_spec",
        "ScreenModel", "AbsorberConfig", "ExperimentSpec",
        "spec_to_document", "load_spec", "validate_spec",
    }
    expected = {("tqsim.experiments", n) for n in experiments}
    expected.add(("tqsim.program", "outcome_distribution"))
    assert expected <= set(bench_names())


@pytest.mark.parametrize("module_name,attr", bench_names())
def test_bench_name_exists(module_name, attr):
    assert hasattr(importlib.import_module(module_name), attr)


def test_positional_call_forms_the_benchmark_uses():
    # The workloads pass these arguments by position; pin how they bind.
    spec, strategy = maudlin_spec(), ResolutionStrategy.SEQUENTIAL
    config = montecarlo.RunConfig(10, 1, strategy, 2)
    assert (config.n_trials, config.seed, config.strategy, config.workers) == (10, 1, strategy, 2)
    assert program.compile_program(spec, strategy, True) is program.compile_program(spec, strategy)
    assert program.outcome_distribution(spec, strategy) == pytest.approx({"A": 0.5, "B": 0.5})
    text = json.dumps(experiments.spec_to_document(spec))
    assert experiments.load_spec(text, validate=False) == spec
    table, report = montecarlo.run_experiment(spec, config)
    payload = montecarlo.run_payload(spec, config, table, report)
    assert (payload["experiment"], payload["strategy"], payload["trials"], payload["seed"]) == (
        "maudlin", "sequential", 10, 1
    )


def test_compile_cache_can_be_cleared():
    assert callable(program.compile_program.cache_clear)


def test_program_audits_leaves_through_its_module_global(monkeypatch):
    audited = []
    original = program.check_bilking

    def counted(ledger, triggers=()):
        audited.append(ledger)
        return original(ledger, triggers)

    monkeypatch.setattr(program, "check_bilking", counted)
    compiled = program.compile_program.__wrapped__(maudlin_spec(), "sequential", True)
    assert len(audited) == len(compiled.leaves) > 0


def test_every_chunk_runs_through_the_module_globals(monkeypatch):
    # Traced runs swap these two attributes, so every chunk, at any worker
    # count, must be computed in this process and looked up at call time.
    seen = []  # list.append is atomic across threads

    def counting(name):
        original = getattr(montecarlo, name)

        def counted(*args):
            seen.append(name)
            return original(*args)

        return counted

    for name in ("classify_counts", "trial_uniforms"):
        monkeypatch.setattr(montecarlo, name, counting(name))
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    trials = 2 * montecarlo.CHUNK_TRIALS + 1  # three chunks
    montecarlo.run_experiment(maudlin_spec(), montecarlo.RunConfig(trials, 5, workers=2))
    assert sorted(seen) == ["classify_counts"] * 3 + ["trial_uniforms"] * 3


def count_nodes(root) -> int:
    """Nodes and leaves of a tree, counted on a stack: a deep chain's tree
    is deeper than the interpreter's recursion limit."""
    count, stack = 0, [root]
    while stack:
        count += 1
        stack.extend(getattr(stack.pop(), "children", ()))
    return count


def test_compiled_program_exposes_what_the_benchmark_reads():
    # Traced runs report leaves, nodes, draws and ledger events per program,
    # read off these attributes; dce-coinflip has a coin node over a 201-way
    # screen split.
    compiled = program.compile_program(dce_spec("coinflip"), "sequential", True)
    assert isinstance(compiled.root, program.Node)
    assert all(isinstance(leaf, program.Leaf) for leaf in compiled.leaves)
    assert (len(compiled.leaves), count_nodes(compiled.root), compiled.draws) == (203, 206, 2)
    assert sum(len(leaf.ledger.events) for leaf in compiled.leaves) == 81015


def test_a_deep_chain_is_counted_without_recursion():
    # One node per round but the last, whose one candidate takes the mass
    # left, and a leaf per round: leaf k holds k + 1 confirmations, k
    # failures and a success.
    compiled = program.compile_program.__wrapped__(load_spec(json.dumps(chain_doc(1000))), "sequential")
    assert (len(compiled.leaves), count_nodes(compiled.root), compiled.draws) == (1000, 1999, 999)
    assert sum(len(leaf.ledger.events) for leaf in compiled.leaves) == 1_001_000


def test_bulk_fringe_trees_hold_the_traced_ledger_event_count():
    # The traced run of the fringe workload reports program.ledger_events
    # summed over these three trees.
    trees = [("keep", "sequential"), ("keep", "global-echo"), ("coinflip", "sequential")]
    total = sum(
        len(leaf.ledger.events)
        for mode, strategy in trees
        for leaf in program.compile_program(dce_spec(mode), strategy, True).leaves
    )
    assert total == 242_619


def test_classification_takes_and_returns_what_the_tracer_counts(monkeypatch):
    # The tracer's counter for classify_counts reads its arguments as
    # (program, uniforms), and run_experiment sums one int64 count per leaf.
    (counter,) = [
        counter for module_name, attr, _span, counter in tracing_boundaries()
        if (module_name, attr) == ("tqsim.montecarlo", "classify_counts")
    ]
    calls = []
    original = montecarlo.classify_counts

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "classify_counts", recorded)
    montecarlo.run_experiment(dce_spec("coinflip"), montecarlo.RunConfig(1_000, 5))
    ((args, kwargs),) = calls
    assert kwargs == {}
    compiled, uniforms = args
    assert isinstance(compiled, program.TrialProgram)
    assert counter(*args) == {"rows": 1_000, "draws": 1_000 * compiled.draws}
    counts = original(*args)
    assert counts.dtype == np.int64
    assert counts.shape == (len(compiled.leaves),)
    assert counts.sum() == 1_000
