"""Self-checks of the benchmark: exact call counts, metric catalogue, output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``
(a few minutes: every workload is traced twice).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Stage, gen_data_argv

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402  (needs divtraj on the path)
from divtraj import cli  # noqa: E402
from divtraj.fileio import read_dataset  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# What the seed code implies per traced pass (see README.md).
EXPECTED_COUNTS = {
    "readme-crossroad": {
        "training.loss_evals_per_iter": 41.0,  # 2 * (K=10 * n_z=2) + 1
        "trajectory.ade_fde.calls": 361_200.0,  # 2 reports * 300 anchors * (300 + 1) * 2
    },
    "dlow-sweep": {"training.loss_evals_per_iter": 121.0},  # 2 * 10 * (2*2 + 2) + 1
    "dpp-map-k100": {"training.numeric_gradient.calls": 0.0},  # analytic gradient path
}


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    """The result line and the artifact digests of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600, check=True,
    )
    details = json.loads((run.RUNS / f"{workload}-seed{seed}-trace1" / "result.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), details["artifact_sha256"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_counts_repeat_exactly_and_match_the_code(workload):
    (first, first_digests), (second, second_digests) = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert first_digests and first_digests == second_digests
    counts = {name for name, unit in PER_LAYER.items() if unit.startswith("count")}
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert first["metrics"][name]["value"] == expected, name


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {**PER_LAYER, "trace.overhead_s": "s"}
    assert BENCHMARK["paths"] == ["perfbench"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dlow-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _pipeline(tmp_path: Path):
    """A small dlow-sweep-shaped pipeline: gen-data, then train/sample/eval at beta=1."""
    configs = WORKLOADS["dlow-sweep"].configs(3)
    configs["gen.json"]["n_examples"] = 6
    configs["train-beta1.json"]["iters"] = 3
    for name, obj in configs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    data = tmp_path / "data.jsonl"
    assert cli.main(list(gen_data_argv(tmp_path, data))) == 0
    stages = WORKLOADS["dlow-sweep"].stages(3, tmp_path, data, tmp_path)[:3]
    for stage in stages:
        assert cli.main(list(stage.argv)) == 0
    return read_dataset(data), stages, Stage(gen_data_argv(tmp_path, data), {data: "dataset"})


def test_checks_pass_clean_outputs_and_flag_tampered_ones(tmp_path):
    dataset, (train, sample, evaluate), gen = _pipeline(tmp_path)
    digests = {}
    for stage in (gen, train, sample, evaluate):
        problems, _ = checks.check_stage(stage, dataset, digests)
        assert problems == [], stage.command

    metrics = tmp_path / "metrics-beta1.json"
    original = metrics.read_text()
    payload = json.loads(original)
    payload["per_example"][0]["mmade"] += 1e-6
    metrics.write_text(json.dumps(payload))
    problems, _ = checks.check_stage(evaluate, dataset, {})
    assert any("mmade" in p for p in problems)

    metrics.write_text(json.dumps(json.loads(original), indent=1))  # same values, other bytes
    problems, _ = checks.check_stage(evaluate, dataset, digests)
    assert any("bytes differ" in p for p in problems)
