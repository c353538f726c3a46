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
from .trajectory import (
    METRIC_NAMES, Context, Dataset, Example, MetricsReport, _check_object, _check_value, _float_array, _reject_unknown,
)
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


def _write_object(path, obj: dict) -> None:
    """A single-object JSON artifact (model, report, metrics), stamped with
    the format version."""
    Path(path).write_text(_dumps({**obj, "format_version": FORMAT_VERSION}) + "\n")


def _write_lines(path, kind: str, meta: dict, records) -> None:
    """A JSON-lines artifact: a {"format_version", "kind", "meta"} header,
    then one record per line."""
    lines = [_dumps({"format_version": FORMAT_VERSION, "kind": kind, "meta": meta}), *map(_dumps, records)]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_lines(path, kind: str, make) -> tuple[dict, list]:
    """The header meta of a JSON-lines artifact of this ``kind``, after its
    version and kind are checked, and ``make`` of each record, parsed one line
    at a time; an error in a record names the file and the line."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty {kind} file")
    header = _check_object(json.loads(lines[0]), f"{path}:1: header")
    _check_version(header, path)
    if header.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} file")
    meta, records = _check_object(header.get("meta", {}), f"{path}:1: header meta"), []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(make(_check_object(json.loads(line), "record")))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
    return meta, records


def write_dataset(path, dataset: Dataset) -> None:
    """JSON lines: a header record, then one example per line."""
    records = (
        {
            "id": ex.id,
            "past": ex.context.past.tolist(),
            "future": ex.future.tolist(),
            "features": ex.context.features.tolist(),
            "meta": ex.meta,
        }
        for ex in dataset.examples
    )
    _write_lines(path, "dataset", dataset.meta, records)


def _example(rec: dict) -> Example:
    context = Context(past=rec["past"], features=rec.get("features", []))
    return Example(context=context, future=rec["future"], id=rec["id"], meta=rec.get("meta", {}))


def read_dataset(path) -> Dataset:
    meta, examples = _read_lines(path, "dataset", _example)
    return Dataset(examples=examples, meta=meta)


def write_model(path, model: dict) -> None:
    required = {"mode", "n_z", "K", "params", "decoder", "train_config", "seed"}
    missing = required - set(model)
    if missing:
        raise ValueError(f"model is missing fields: {sorted(missing)}")
    _write_object(path, model)


def read_model(path) -> dict:
    path = Path(path)
    model = _check_object(json.loads(path.read_text()), f"{path}: model")
    _check_version(model, path)
    if model.get("mode") not in ("dsf", "dlow"):
        raise ValueError(f"{path}: unknown sampler mode {model.get('mode')!r}")
    for key, kind in (("K", "count"), ("n_z", "count"), ("seed", "integer")):
        _check_value(f"{path}: {key}", model[key], kind)
    k, n_z = model["K"], model["n_z"]
    shapes = {"codes": (k, n_z)} if model["mode"] == "dsf" else {"A": (k, n_z, n_z), "b": (k, n_z)}
    params = _check_object(model["params"], f"{path}: model params")
    for name, shape in shapes.items():
        found = _float_array(f"{path}: {name}", params[name]).shape
        if found != shape:
            raise ValueError(f"{path}: {name} of shape {found} does not match K={k}, n_z={n_z}")
    return model


def write_samples(path, records: list[dict], meta: dict | None = None) -> None:
    """JSON lines: header, then {"id", "samples", optional "dpp_map"} per line."""
    rows = (
        {"id": int(rec["id"]), "samples": np.asarray(rec["samples"], dtype=float).tolist()}
        | ({} if rec.get("dpp_map") is None else {"dpp_map": [int(i) for i in rec["dpp_map"]]})
        for rec in records
    )
    _write_lines(path, "samples", meta or {}, rows)


def _sample_record(rec: dict) -> dict:
    _check_value("id", rec["id"], "integer")
    return {"id": rec["id"], "samples": _float_array("samples", rec["samples"]), "dpp_map": rec.get("dpp_map")}


def read_samples(path) -> list[dict]:
    return _read_lines(path, "samples", _sample_record)[1]


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def _kernel_config(block: dict, **overrides) -> KernelConfig:
    """The KernelConfig of a kernel block, from a train config or a saved model."""
    _reject_unknown(block, (*KernelConfig.__dataclass_fields__, "latent_dim"), "kernel config")
    block = dict(block, **overrides)
    block.pop("latent_dim", None)  # older files; the quality sphere now takes the codes' n_z
    return KernelConfig(**block)


# TrainConfig's fields, and keys that older configs carry
_TRAIN_CONFIG_KEYS = (*TrainConfig.__dataclass_fields__, "fd_step", "adam_beta1", "adam_beta2", "adam_eps")


def train_config_from_dict(block: dict) -> TrainConfig:
    _reject_unknown(block, _TRAIN_CONFIG_KEYS, "train config")
    block = dict(block)
    block.pop("fd_step", None)  # finite-difference step of older configs, now unused
    for key, fixed in zip(("adam_beta1", "adam_beta2", "adam_eps"), (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)):
        if (value := block.pop(key, fixed)) != fixed:  # older configs; Adam's constants are fixed
            raise ValueError(f"{key} is fixed at {fixed}, got {value}")
    kernel = _kernel_config(block.pop("kernel", {}))
    energy_block = block.pop("energy", {})
    _reject_unknown(energy_block, EnergyConfig.__dataclass_fields__, "energy config")
    return TrainConfig(kernel=kernel, energy=EnergyConfig(**energy_block), **block)


def report_to_dict(report: TrainReport) -> dict:
    """Serializable training report; wall time is excluded to keep file
    hashes stable across reruns."""
    return {
        "mode": report.mode,
        "seed": report.seed,
        "trace": [dict(entry) for entry in report.trace],
        "final_loss": report.final_loss,
        "final_terms": report.final_terms,
    }


def write_report(path, report_dict: dict) -> None:
    _write_object(path, report_dict)


def metrics_to_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.per_example:
        writer.writerow([row["id"]] + [repr(float(row[name])) for name in METRIC_NAMES])
    return buf.getvalue()
