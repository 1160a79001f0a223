"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The smoke runs use ``--tiny`` inputs and a fraction of a second of
measuring, so the whole file runs in well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tqsim import experiments, montecarlo  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0, name


def test_benchmark_json_names_what_the_benchmark_prints():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_a_wrong_law_is_caught_and_counted_as_failed(tmp_path):
    workload = workloads.BulkNarrow(5, workloads.TINY, tmp_path)
    _, _, checked = run.measure(workload, 0.0)
    assert checked == [[]]
    # maudlin is 50/50 between A and B; claim 60/40 instead.
    key = ("maudlin", workloads.SEQ)
    assert workload.laws[key] == pytest.approx({"A": 0.5, "B": 0.5})
    workload.laws[key] = {"A": 0.6, "B": 0.4}
    _, _, checked = run.measure(workload, 0.0)
    assert len(checked) == 1
    assert any("maudlin" in p and "count" in p for p in checked[0])


def test_count_bound_passes_the_exact_law_and_rejects_a_small_shift():
    spec = experiments.maudlin_spec()
    table, _ = montecarlo.run_experiment(spec, montecarlo.RunConfig(400_000, seed=9))
    assert checks.law_problems(table.counts, 400_000, {"A": 0.5, "B": 0.5}) == []
    # A shift of 0.01 is about 12 standard errors at this size.
    assert checks.law_problems(table.counts, 400_000, {"A": 0.51, "B": 0.49})
    assert checks.law_problems(table.counts, 400_000, {"A": 0.5, "B": 0.5 - 1e-3, "C": 1e-3})
    assert checks.law_problems({"A": 1, "B": 399_999}, 400_000, {"B": 1.0})


def test_payload_check_catches_a_short_histogram():
    spec = experiments.dce_spec("keep")
    config = montecarlo.RunConfig(50_000, seed=4)
    table, report = montecarlo.run_experiment(spec, config)
    payload = montecarlo.run_payload(spec, config, table, report)
    law = workloads.program.outcome_distribution(spec, workloads.SEQ)
    assert checks.payload_problems(json.dumps(payload), 50_000, 201, law) == []
    payload["histogram"]["counts"].pop()
    assert checks.payload_problems(json.dumps(payload), 50_000, 201, law)
    assert checks.payload_problems("{not json", 50_000, 201, law)


def test_a_hanging_process_is_killed_and_reported_as_timed_out():
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    seconds, status, _ = workloads._run_process(argv, subprocess.DEVNULL, subprocess.DEVNULL, 0.5)
    assert status is None and seconds < 10


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 12)]) == (1.0, 100.0 / 11)
    assert run.tail([1.0, 3.0, 2.0]) == (1.0, 100.0 / 3)


def test_generated_specs_depend_on_the_seed_only(tmp_path):
    a = workloads.CliCold(7, workloads.TINY, tmp_path)
    b = workloads.CliCold(7, workloads.TINY, tmp_path)
    c = workloads.CliCold(8, workloads.TINY, tmp_path)
    assert a.docs == b.docs and a.docs != c.docs
    assert [x.seed for x in a.next_calls()] == [x.seed for x in b.next_calls()]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "bulk-narrow", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
