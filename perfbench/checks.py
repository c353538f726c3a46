"""Output checks for one CLI stage.

A stage fails when one of its artifacts does not re-read, when its metric
means are non-finite, when its metric rows disagree with an independent
recomputation from the samples and the dataset, or when an artifact differs
in bytes from the same artifact of an earlier repeat of the same workload and
seed, in this process or in a child interpreter.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from divtraj import fileio
from divtraj.trajectory import METRIC_NAMES

RTOL, ATOL = 1e-9, 1e-12


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def recompute_rows(dataset, records: list, eps: float) -> dict:
    """Per-example metrics from first principles, keyed by example id."""
    futures = np.stack([ex.future for ex in dataset.examples])
    contexts = np.stack([np.concatenate([ex.context.past.ravel(), ex.context.features]) for ex in dataset.examples])
    samples_by_id = {rec["id"]: rec["samples"] for rec in records}
    rows = {}
    for i, ex in enumerate(dataset.examples):
        s = samples_by_id[ex.id]
        k = s.shape[0]
        flat = s.reshape(k, -1)
        pair = np.sqrt(((flat[:, None] - flat[None]) ** 2).sum(-1))
        step = np.sqrt(((s[:, None] - s[None]) ** 2).sum(-1))  # (K, K, T)
        off = ~np.eye(k, dtype=bool)
        to_future = np.sqrt(((s[:, None] - futures[None]) ** 2).sum(-1))  # (K, M, T)
        ade_all = to_future.mean(-1).min(0)
        fde_all = to_future[..., -1].min(0)
        group = np.sqrt(((contexts - contexts[i]) ** 2).sum(-1)) <= eps
        group[i] = True
        rows[ex.id] = {
            "apd": pair.sum() / (k * (k - 1)),
            "asd": np.where(off, step.mean(-1), np.inf).min(1).mean(),
            "fsd": np.where(off, step[..., -1], np.inf).min(1).mean(),
            "ade": ade_all[i],
            "fde": fde_all[i],
            "mmade": ade_all[group].mean(),
            "mmfde": fde_all[group].mean(),
        }
    return rows


def _check_samples(path: Path, dataset) -> list[str]:
    records = fileio.read_samples(path)
    ids = [ex.id for ex in dataset.examples]
    if [rec["id"] for rec in records] != ids:
        return [f"{path.name}: record ids do not match the dataset"]
    problems = []
    for rec in records:
        s = rec["samples"]
        if s.ndim != 3 or s.shape[1:] != dataset.examples[0].future.shape or not np.all(np.isfinite(s)):
            problems.append(f"{path.name}: bad sample array for id {rec['id']}")
        chosen = rec["dpp_map"] or []
        if len(set(chosen)) != len(chosen) or any(not 0 <= j < s.shape[0] for j in chosen):
            problems.append(f"{path.name}: invalid dpp_map for id {rec['id']}")
    return problems


def _check_metrics_json(path: Path, dataset, samples_path: Path, eps: float) -> tuple[list[str], dict]:
    payload = json.loads(path.read_text())
    means = payload.get("means", {})
    if sorted(means) != sorted(METRIC_NAMES) or not all(math.isfinite(v) for v in means.values()):
        return [f"{path.name}: missing or non-finite means {means}"], {}
    rows = payload["per_example"]
    if [row["id"] for row in rows] != [ex.id for ex in dataset.examples]:
        return [f"{path.name}: per-example ids do not match the dataset"], {}
    expected = recompute_rows(dataset, fileio.read_samples(samples_path), eps)
    problems = []
    for name in METRIC_NAMES:
        got = np.array([row[name] for row in rows])
        want = np.array([expected[row["id"]][name] for row in rows])
        if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            worst = int(np.argmax(np.abs(got - want)))
            problems.append(f"{path.name}: {name} of id {rows[worst]['id']} is {got[worst]!r}, expected {want[worst]!r}")
        if not math.isclose(means[name], float(got.mean()), rel_tol=RTOL, abs_tol=ATOL):
            problems.append(f"{path.name}: mean {name} {means[name]!r} is not the mean of its rows")
    return problems, means


def _check_metrics_csv(path: Path, dataset) -> list[str]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["id", *METRIC_NAMES] or len(table) != len(dataset) + 1:
        return [f"{path.name}: unexpected header or row count"]
    return []


def check_stage(stage, dataset, digests: dict) -> tuple[list[str], list[dict]]:
    """Check every artifact of a finished stage.

    ``digests`` maps artifact file names to the SHA-256 seen at their first
    repeat and is updated in place. Returns the problems found and the metric
    means of any metrics file the stage wrote.
    """
    problems: list[str] = []
    means: list[dict] = []
    for path, kind in stage.artifacts.items():
        path = Path(path)
        try:
            if kind == "dataset":
                fileio.read_dataset(path)
            elif kind == "model":
                fileio.read_model(path)
            elif kind == "report":
                report = json.loads(path.read_text())
                if report.get("format_version") != fileio.FORMAT_VERSION or not math.isfinite(report["final_loss"]):
                    problems.append(f"{path.name}: bad format version or non-finite final loss")
            elif kind == "samples":
                problems += _check_samples(path, dataset)
            elif kind == "metrics_json":
                found, stage_means = _check_metrics_json(path, dataset, Path(_flag(stage.argv, "--samples")), stage.eps)
                problems += found
                if stage_means:
                    means.append(stage_means)
            elif kind == "metrics_csv":
                problems += _check_metrics_csv(path, dataset)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{path.name}: does not re-read: {exc!r}")
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digests.setdefault(path.name, digest) != digest:
            problems.append(f"{path.name}: bytes differ from an earlier repeat of the same seed")
    return problems, means
