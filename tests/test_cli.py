"""Command-line behavior, exercised in process through main()."""
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tqsim
from tqsim import (
    CHUNK_TRIALS,
    RunConfig,
    dce_spec,
    load_spec,
    maudlin_spec,
    montecarlo,
    program,
    run_experiment,
    spec_to_document,
)
from tqsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_no_command_prints_usage(capsys):
    code, _out, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_list_names_every_builtin(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    names = [line.split()[0] for line in lines]
    assert names == ["maudlin", "miller", "dce-keep", "dce-remove", "dce-coinflip"]
    again = run_cli(capsys, "list")
    assert again == (code, out, err)


def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, spec_to_document(maudlin_spec()))
    code, out, _err = run_cli(capsys, "validate", path)
    assert code == 0
    assert out == "maudlin: ok\n"


def test_validate_reports_problems(tmp_path, capsys):
    doc = spec_to_document(maudlin_spec())
    doc["rules"][0]["time"] = 0.5
    code, out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert "retro-placement: rule 0" in err


def test_validate_reports_coverage_hole(tmp_path, capsys):
    doc = spec_to_document(maudlin_spec())
    del doc["rules"]
    code, _out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert "incomplete coverage on branch" in err


@pytest.mark.parametrize(
    "absorber,point,expected",
    [
        # t = x = 1e200: inf - inf, a NaN interval (B and the rule placing it).
        (1, {"t": 1e200, "x": 1e200}, [
            "absorber 'B': squared interval from the emission is not finite",
            "rule 0 placement: squared interval from the emission is not finite",
        ]),
        # x = 1e308 at t = 1: an interval of -inf.
        (0, {"x": 1e308}, ["absorber 'A': squared interval from the emission is not finite"]),
    ],
)
def test_validate_rejects_non_finite_interval(tmp_path, capsys, absorber, point, expected):
    doc = spec_to_document(maudlin_spec())
    doc["absorbers"][absorber].update(point)
    if absorber == 1:
        doc["rules"][0]["action"].update(point)
    code, out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err.splitlines() == expected


def test_validate_rejects_nan_time_in_bounded_time(tmp_path):
    # A separate process with a timeout, so a regression cannot hang the suite.
    doc = spec_to_document(maudlin_spec())
    del doc["rules"]
    doc["absorbers"][1].update(present=True, t=math.nan)
    env = dict(os.environ, PYTHONPATH=str(Path(tqsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tqsim.cli", "validate", write_doc(tmp_path, doc)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: absorbers[1]: field 't' must be a finite number\n"


def run_bounded(argv, preamble="", timeout=60):
    """``sim ARGV`` in a separate process with a timeout, so a regression
    cannot hang the suite; ``preamble`` runs first (e.g. to cap memory)."""
    code = preamble + "\nfrom tqsim.cli import main\nimport sys\nraise SystemExit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(tqsim.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=timeout, env=env
    )


def test_one_worker_run_leaves_the_thread_pool_unimported():
    # concurrent.futures brings logging with it; only a pooled run needs it.
    code = (
        "import sys\nfrom tqsim.cli import main\n"
        "pooled = lambda: sorted({'concurrent.futures', 'logging'} & sys.modules.keys())\n"
        "print(pooled())\n"
        "main(['run', '--experiment', 'maudlin', '--trials', '1000', '--seed', '1'])\n"
        "print(pooled())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tqsim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_only_montecarlo_and_experiments_import_numpy():
    # Trials are sampled in montecarlo and the screen geometry lives in
    # experiments; the tree builder and the rest stay free of numpy.
    importers = set()
    for path in Path(tqsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"montecarlo.py", "experiments.py"}


def test_validate_refuses_transaction_succeeded_trigger(tmp_path, capsys):
    doc = spec_to_document(maudlin_spec())
    doc["rules"][0]["trigger"] = {"kind": "transaction-succeeded", "id": "A", "t": 1.0}
    code, out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err == "error: rules[0].trigger: unknown trigger kind 'transaction-succeeded'\n"


@pytest.mark.parametrize(
    "content", [b"[" * 100_000 + b"]" * 100_000, b'{"name": "\xff"}'], ids=["over-deep", "invalid-utf8"]
)
def test_validate_reports_a_parse_error(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    proc = run_bounded(["validate", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: parse error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rules", [None, 5])
def test_validate_rejects_rules_that_are_not_a_list(tmp_path, capsys, rules):
    doc = spec_to_document(maudlin_spec())
    doc["rules"] = rules
    code, _out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert err == "error: rules: expected a list\n"


def test_validate_rejects_huge_bin_count_in_bounded_memory(tmp_path):
    # A label per declared bin once exhausted memory before any check ran.
    doc = spec_to_document(dce_spec("keep"))
    doc["screen"]["bins"] = 20_000_001
    cap = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
    proc = run_bounded(["validate", write_doc(tmp_path, doc)], preamble=cap)
    assert proc.returncode == 1
    assert proc.stderr == "screen bins and bin absorbers disagree\n"


@pytest.mark.parametrize("field,value", [("lambda", 1e-308), ("d", 1e308), ("L", 1e308), ("span", 1e308)])
def test_validate_locates_a_screen_whose_amplitudes_overflow(tmp_path, field, value):
    # Every field is finite, but a path over the wavelength overflows to inf.
    doc = spec_to_document(dce_spec("keep"))
    doc["screen"][field] = value
    proc = run_bounded(["validate", write_doc(tmp_path, doc)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("screen:")
    assert "RuntimeWarning" not in proc.stderr


def wide_screen_doc(bins):
    """dce-keep on a ``bins``-bin screen of the bundled bin width."""
    doc = spec_to_document(dce_spec("keep"))
    screen = doc["screen"]
    screen["span"] *= bins / screen["bins"]
    screen["bins"] = bins
    telescopes = [a for a in doc["absorbers"] if not a["channel"].startswith("bin")]
    doc["absorbers"] = [
        {"id": f"bin{k:03d}", "channel": f"bin{k:03d}", "t": 2.0, "x": 2.0, "present": True}
        for k in range(bins)
    ] + telescopes
    return doc


def chain_doc(channels, t=None):
    """``channels`` equal-weight channels with one absorber each.  They
    absorb at t = 1, 2, ..., one per sequential round, or all at ``t`` in
    one round."""
    amp = math.sqrt(1.0 / channels)
    return {
        "name": f"chain-{channels}",
        "emission": {"t": 0.0, "x": 0.0},
        "state": [{"channel": f"c{k}", "re": amp} for k in range(channels)],
        "absorbers": [
            {"id": f"a{k}", "channel": f"c{k}", "t": t or k + 1.0, "x": 0.0, "present": True}
            for k in range(channels)
        ],
    }


@pytest.mark.parametrize("rounds", [260, 1000])
def test_validate_accepts_a_deep_chain(tmp_path, rounds):
    # The tree grows one node per round; no interpreter recursion limit
    # may bound its depth.
    proc = run_bounded(["validate", write_doc(tmp_path, chain_doc(rounds))])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"chain-{rounds}: ok\n", "")


def test_validate_refuses_a_wide_round_at_once(tmp_path):
    # 40 000 candidates in one round: the leaf-by-leaf count refuses the
    # tree within its first leaves, and nothing before it is quadratic.
    proc = run_bounded(["validate", write_doc(tmp_path, chain_doc(40_000, t=1.0))], timeout=20)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"tree too large: its leaves would hold more than {program.MAX_LEDGER_EVENTS}"
        " ledger events (MAX_LEDGER_EVENTS)\n"
    )


# Prints the process's peak resident set at exit, as "VmHWM: <n> kB".  Not
# ru_maxrss: across exec that keeps the peak of the forking test process.
PEAK_RSS = """
import atexit, sys
def _peak():
    with open("/proc/self/status") as f:
        print(next(line for line in f if line.startswith("VmHWM:")), end="", file=sys.stderr)
atexit.register(_peak)
"""


def test_deep_chain_runs_in_bounded_memory(tmp_path):
    # 200 nodes deep, yet a chunk holds one value per trial.
    path = write_doc(tmp_path, chain_doc(200))
    outs = []
    for workers in ("1", "2"):
        argv = ["run", "--spec", path, "--trials", "100000", "--seed", "7", "--workers", workers]
        proc = run_bounded(argv, preamble=PEAK_RSS)
        assert proc.returncode == 0
        assert int(proc.stderr.split()[1]) < 80 * 1024
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("rounds", [8, 1000])
def test_a_run_classifies_each_chunk_once_whatever_the_depth(monkeypatch, rounds):
    calls = []
    classify = montecarlo.classify_counts

    def counted(program, uniforms):
        calls.append(uniforms.shape)
        return classify(program, uniforms)

    monkeypatch.setattr(montecarlo, "classify_counts", counted)
    n = 2 * CHUNK_TRIALS + 1
    table, report = run_experiment(load_spec(json.dumps(chain_doc(rounds))), RunConfig(n, 7))
    assert calls == [(CHUNK_TRIALS, 1), (CHUNK_TRIALS, 1), (1, 1)]
    assert sum(table.counts.values()) == n
    assert report.clean()


def test_a_deep_chain_runs_in_seconds(tmp_path):
    # One draw per trial, whatever the depth.  Classified node by node, in
    # chunks shrunk to fit a row per trial, this run took about 9 s on 2 CPUs.
    path = write_doc(tmp_path, chain_doc(1000))
    proc = run_bounded(["run", "--spec", path, "--trials", "100000", "--seed", "7"], timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["trials"] == 100_000


def test_validate_refuses_a_screen_too_wide_to_compile(tmp_path):
    # Each of the 1601 bin leaves would read 1601 confirmations and 1600
    # failures: about 5M ledger events, refused by the leaf-by-leaf count.
    proc = run_bounded(["validate", write_doc(tmp_path, wide_screen_doc(1601))])
    assert proc.returncode == 1
    assert proc.stderr == (
        f"tree too large: its leaves would hold more than {program.MAX_LEDGER_EVENTS}"
        " ledger events (MAX_LEDGER_EVENTS)\n"
    )


@pytest.mark.parametrize("experiment", ["maudlin", "dce-keep"])
@pytest.mark.parametrize("slack,expected", [(0, 0), (-1, 1)])
def test_tree_size_bound_is_exact(monkeypatch, capsys, experiment, slack, expected):
    # The leaf-by-leaf count refuses each tree at the leaf that takes it
    # past the bound: maudlin's at its residual branch, dce-keep's within
    # its 201-way split.
    spec = tqsim.builtin_spec(experiment)
    total = sum(
        len(leaf.ledger.events)
        for leaf in program.compile_program.__wrapped__(spec, "sequential", True).leaves
    )
    monkeypatch.setattr(program, "MAX_LEDGER_EVENTS", total + slack)
    program.compile_program.cache_clear()
    try:
        code, _out, err = run_cli(
            capsys, "run", "--experiment", experiment, "--trials", "1000", "--seed", "1"
        )
    finally:
        program.compile_program.cache_clear()
    assert code == expected
    assert ("tree too large" in err) == bool(expected)


def test_validate_missing_file(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:")


def test_run_emits_json_payload(capsys):
    code, out, err = run_cli(
        capsys, "run", "--experiment", "maudlin", "--trials", "2000", "--seed", "7"
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["experiment"] == "maudlin"
    assert payload["trials"] == 2000
    assert payload["seed"] == 7
    assert payload["consistency"]["bilking_violations"] == 0
    total = sum(entry["count"] for entry in payload["frequencies"].values())
    assert total == 2000


def test_run_repeats_byte_identical(capsys):
    args = ("run", "--experiment", "maudlin", "--trials", "2000", "--seed", "7")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_run_worker_flag_cannot_change_output(capsys):
    args = ("run", "--experiment", "maudlin", "--trials", "60000", "--seed", "3")
    base = run_cli(capsys, *args)
    pooled = run_cli(capsys, *args, "--workers", "2")
    assert pooled == base


def test_run_accepts_spec_file(tmp_path, capsys):
    path = write_doc(tmp_path, spec_to_document(maudlin_spec()))
    code, out, _err = run_cli(
        capsys, "run", "--spec", path, "--trials", "1000", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["experiment"] == "maudlin"


def test_run_unknown_experiment(capsys):
    code, out, err = run_cli(
        capsys, "run", "--experiment", "nosuch", "--trials", "10", "--seed", "1"
    )
    assert code == 1
    assert out == ""
    assert "unknown experiment 'nosuch'" in err


def test_run_strategy_spec_mismatch(capsys):
    code, _out, err = run_cli(
        capsys,
        "run",
        "--experiment",
        "maudlin",
        "--strategy",
        "global-echo",
        "--trials",
        "10",
        "--seed",
        "1",
    )
    assert code == 1
    assert "strategy requires fixed absorber set" in err


def test_run_requires_seed(capsys):
    code, _out, err = run_cli(capsys, "run", "--experiment", "maudlin", "--trials", "10")
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("seed,expected", [(2**128, 1), (2**128 - 1, 0)])
def test_run_seed_bound(capsys, seed, expected):
    code, out, err = run_cli(
        capsys, "run", "--experiment", "maudlin", "--trials", "10", "--seed", str(seed)
    )
    assert code == expected
    if expected:
        assert err == "error: seed must be below 2**128\n"
    else:
        assert json.loads(out)["seed"] == seed


def test_run_rejects_experiment_and_spec_together(tmp_path, capsys):
    path = write_doc(tmp_path, spec_to_document(maudlin_spec()))
    code, _out, err = run_cli(
        capsys,
        "run",
        "--experiment",
        "maudlin",
        "--spec",
        path,
        "--trials",
        "10",
        "--seed",
        "1",
    )
    assert code == 1
    assert "not allowed with" in err


def test_run_csv_without_histogram(capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--experiment",
        "maudlin",
        "--trials",
        "100",
        "--seed",
        "1",
        "--format",
        "csv",
    )
    assert code == 1
    assert out == ""
    assert "no histogram for this arrangement" in err


def test_run_csv_histogram(capsys):
    code, out, _err = run_cli(
        capsys,
        "run",
        "--experiment",
        "dce-keep",
        "--trials",
        "500",
        "--seed",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bin_center,count,probability"
    assert len(lines) == 202


def test_run_writes_output_directory(tmp_path, capsys):
    outdir = tmp_path / "results"
    code, out, _err = run_cli(
        capsys,
        "run",
        "--experiment",
        "dce-keep",
        "--trials",
        "500",
        "--seed",
        "4",
        "--out",
        str(outdir),
    )
    assert code == 0
    assert (outdir / "results.json").read_text() == out
    csv_text = (outdir / "histogram.csv").read_text()
    assert csv_text.startswith("bin_center,count,probability\n")


def test_abl_contracted_examples(capsys):
    cases = [
        (("+z", "+x", "z", "+z"), "1.000000000000\n"),
        (("+z", "+x", "x", "+x"), "1.000000000000\n"),
        (("+z", "+x", "y", "+y"), "0.500000000000\n"),
    ]
    for (pre, post, obs, outcome), expected in cases:
        code, out, err = run_cli(
            capsys,
            "abl",
            "--pre",
            pre,
            "--post",
            post,
            "--observable",
            obs,
            "--outcome",
            outcome,
        )
        assert code == 0, err
        assert out == expected


def test_abl_accepts_raw_amplitudes(capsys):
    code, out, _err = run_cli(
        capsys, "abl", "--pre", "1,0", "--post", "+x", "--observable", "z", "--outcome", "+z"
    )
    assert code == 0
    assert out == "1.000000000000\n"


def test_abl_rejects_foreign_outcome(capsys):
    code, _out, err = run_cli(
        capsys, "abl", "--pre", "+z", "--post", "+x", "--observable", "z", "--outcome", "+x"
    )
    assert code == 1
    assert "not an outcome of observable" in err


def test_abl_rejects_unparseable_state(capsys):
    code, _out, err = run_cli(
        capsys, "abl", "--pre", "sideways", "--post", "+x", "--observable", "z", "--outcome", "+z"
    )
    assert code == 1
    assert err.startswith("error:")


def test_abl_rejects_orthogonal_selections(capsys):
    code, _out, err = run_cli(
        capsys, "abl", "--pre", "+z", "--post=-z", "--observable", "z", "--outcome", "+z"
    )
    assert code == 1
    assert "vanishing pre/post overlap" in err


@pytest.mark.parametrize("pre", ["1e200,1e200", "1.3e154,1.3e154"])
def test_abl_refuses_a_state_whose_norm_overflows(capsys, pre):
    code, _out, err = run_cli(
        capsys, "abl", "--pre", pre, "--post", "+x", "--observable", "z", "--outcome", "+z"
    )
    assert code == 1
    assert err == "error: squared norm overflows\n"

