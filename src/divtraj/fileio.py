"""Versioned file formats: JSON-lines datasets and samples, JSON models and
reports, CSV metric tables.

All writers emit canonical JSON (sorted keys, fixed separators) so that
reruns with identical seeds produce byte-identical files. Volatile values
(wall time) are deliberately kept out of written artifacts.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dpp import KernelConfig
from .energy import EnergyConfig
from .trajectory import METRIC_NAMES, Context, Dataset, Example, MetricsReport
from .training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig, TrainReport

__all__ = [
    "FORMAT_VERSION",
    "write_dataset",
    "read_dataset",
    "write_model",
    "read_model",
    "write_samples",
    "read_samples",
    "write_report",
    "train_config_from_dict",
    "train_config_to_dict",
    "report_to_dict",
]

FORMAT_VERSION = 1

CSV_COLUMNS = ("id",) + METRIC_NAMES


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _check_version(obj: dict, path) -> None:
    if obj.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported or missing format_version (expected {FORMAT_VERSION})")


def write_dataset(path, dataset: Dataset) -> None:
    """JSON lines: a header record, then one example per line."""
    path = Path(path)
    header = {"format_version": FORMAT_VERSION, "kind": "dataset", "meta": dataset.meta}
    lines = [_dumps(header)]
    for ex in dataset.examples:
        lines.append(
            _dumps(
                {
                    "id": ex.id,
                    "past": ex.context.past.tolist(),
                    "future": ex.future.tolist(),
                    "features": ex.context.features.tolist(),
                    "meta": ex.meta,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    _check_version(header, path)
    if header.get("kind") != "dataset":
        raise ValueError(f"{path}: not a dataset file")
    examples = []
    for line in lines[1:]:
        rec = json.loads(line)
        examples.append(
            Example(
                context=Context(past=rec["past"], features=rec.get("features", [])),
                future=rec["future"],
                id=int(rec["id"]),
                meta=rec.get("meta", {}),
            )
        )
    return Dataset(examples=tuple(examples), meta=header.get("meta", {}))


def write_model(path, model: dict) -> None:
    model = dict(model)
    model["format_version"] = FORMAT_VERSION
    required = {"mode", "n_z", "K", "params", "decoder", "train_config", "seed"}
    missing = required - set(model)
    if missing:
        raise ValueError(f"model is missing fields: {sorted(missing)}")
    Path(path).write_text(_dumps(model) + "\n")


def read_model(path) -> dict:
    path = Path(path)
    model = json.loads(path.read_text())
    _check_version(model, path)
    if model.get("mode") not in ("dsf", "dlow"):
        raise ValueError(f"{path}: unknown sampler mode {model.get('mode')!r}")
    k, n_z = int(model["K"]), int(model["n_z"])
    shapes = {"codes": (k, n_z)} if model["mode"] == "dsf" else {"A": (k, n_z, n_z), "b": (k, n_z)}
    for name, shape in shapes.items():
        found = np.shape(model["params"][name])
        if found != shape:
            raise ValueError(f"{path}: {name} of shape {found} does not match K={k}, n_z={n_z}")
    return model


def write_samples(path, records: list[dict], meta: dict | None = None) -> None:
    """JSON lines: header, then {"id", "samples", optional "dpp_map"} per line."""
    path = Path(path)
    header = {"format_version": FORMAT_VERSION, "kind": "samples", "meta": meta or {}}
    lines = [_dumps(header)]
    for rec in records:
        out = {"id": int(rec["id"]), "samples": np.asarray(rec["samples"], dtype=float).tolist()}
        if rec.get("dpp_map") is not None:
            out["dpp_map"] = [int(i) for i in rec["dpp_map"]]
        lines.append(_dumps(out))
    path.write_text("\n".join(lines) + "\n")


def read_samples(path) -> list[dict]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty samples file")
    header = json.loads(lines[0])
    _check_version(header, path)
    if header.get("kind") != "samples":
        raise ValueError(f"{path}: not a samples file")
    records = []
    for line in lines[1:]:
        rec = json.loads(line)
        records.append(
            {
                "id": int(rec["id"]),
                "samples": np.asarray(rec["samples"], dtype=float),
                "dpp_map": rec.get("dpp_map"),
            }
        )
    return records


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _kernel_config(block: dict) -> KernelConfig:
    """The KernelConfig of a kernel block, from a train config or a saved model."""
    block = dict(block)
    block.pop("latent_dim", None)  # older files; the quality sphere now takes the codes' n_z
    _reject_unknown(block, KernelConfig.__dataclass_fields__, "kernel config")
    return KernelConfig(**block)


def train_config_from_dict(block: dict) -> TrainConfig:
    block = dict(block)
    block.pop("fd_step", None)  # finite-difference step of older configs, now unused
    for key, fixed in zip(("adam_beta1", "adam_beta2", "adam_eps"), (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)):
        if (value := block.pop(key, fixed)) != fixed:  # older configs; Adam's constants are fixed
            raise ValueError(f"{key} is fixed at {fixed}, got {value}")
    kernel = _kernel_config(block.pop("kernel", {}))
    energy_block = dict(block.pop("energy", {}))
    _reject_unknown(block, TrainConfig.__dataclass_fields__, "train config")
    _reject_unknown(energy_block, EnergyConfig.__dataclass_fields__, "energy config")
    return TrainConfig(kernel=kernel, energy=EnergyConfig(**energy_block), **block)


def report_to_dict(report: TrainReport) -> dict:
    """Serializable training report; wall time is excluded to keep file
    hashes stable across reruns."""
    return {
        "format_version": FORMAT_VERSION,
        "mode": report.mode,
        "seed": report.seed,
        "trace": [dict(entry) for entry in report.trace],
        "final_loss": report.final_loss,
        "final_terms": report.final_terms,
    }


def write_report(path, report_dict: dict) -> None:
    report_dict = dict(report_dict)
    report_dict.setdefault("format_version", FORMAT_VERSION)
    Path(path).write_text(_dumps(report_dict) + "\n")


def metrics_to_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.per_example:
        writer.writerow([row["id"]] + [repr(float(row[name])) for name in METRIC_NAMES])
    return buf.getvalue()
