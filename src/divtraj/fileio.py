"""Versioned file formats: JSON-lines datasets and samples, JSON models and
reports, CSV metric tables.

All writers emit canonical JSON (sorted keys, fixed separators) so that
reruns with identical seeds produce byte-identical files. Volatile values
(wall time) are deliberately kept out of written artifacts. Each writer
rejects what its reader rejects, with the reader's message, before it writes,
so a written file needs no read-back.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path

from .decoders import decoder_from_config
from .dpp import KernelConfig
from .energy import EnergyConfig
from .trajectory import (
    METRIC_NAMES, Context, Dataset, Example, MetricsReport, SampleSet, _check_like, _check_object, _check_value,
    _float_array, _reject_unknown, _require_keys,
)
from .training import TrainConfig, TrainReport

__all__ = [
    "FORMAT_VERSION",
    "write_dataset",
    "read_dataset",
    "write_model",
    "read_model",
    "read_model_and_decoder",
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
    then one record per line; a bad record raises, naming the file and its
    line, before anything is written."""
    path = Path(path)  # named as _read_lines names it
    header = {"format_version": FORMAT_VERSION, "kind": kind, "meta": _check_object(meta, f"{path}:1: header meta")}
    lines = [_dumps(header)]
    try:
        lines.extend(map(_dumps, records))
    except ValueError as exc:
        raise ValueError(f"{path}:{len(lines) + 1}: {exc}") from exc
    path.write_text("\n".join(lines) + "\n")


def _read_lines(path, kind: str, make) -> tuple[dict, list]:
    """The header meta of a JSON-lines artifact of this ``kind``, after its
    version and kind are checked, and ``make(record, ids so far)`` of each
    record, one line at a time; an error in a record names the file and line."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty {kind} file")
    header = _check_object(json.loads(lines[0]), f"{path}:1: header")
    _check_version(header, path)
    if header.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} file")
    meta, records, seen = _check_object(header.get("meta", {}), f"{path}:1: header meta"), [], set()
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(make(_check_object(json.loads(line), "record"), seen))
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


def _new_id(value, seen: set, what: str) -> int:
    """A record's id: an integer >= 0 that no earlier record of its file used."""
    _check_value("id", value, "index")
    if value in seen:
        raise ValueError(f"duplicate {what} id {value}")
    seen.add(value)
    return int(value)


def _example(rec: dict, seen: set) -> Example:
    key = _new_id(rec["id"], seen, "example")
    context = Context(past=rec["past"], features=rec.get("features", []))
    return Example(context=context, future=rec["future"], id=key, meta=rec.get("meta", {}))


def read_dataset(path) -> Dataset:
    first = {}  # the first example, whose shapes every example must have

    def example(rec: dict, seen: set) -> Example:
        ex = _example(rec, seen)
        _check_like(first.setdefault("example", ex), ex)
        return ex

    meta, examples = _read_lines(path, "dataset", example)
    return Dataset(examples=examples, meta=meta)


# the fields of every model file
_MODEL_FIELDS = ("mode", "n_z", "K", "params", "decoder", "train_config", "seed")


def _model(model: dict, path):
    """The one check of a model, written or read, of every field a command
    reads; ``path`` starts each message. Returns the model's decoder."""
    try:
        _require_keys(model, _MODEL_FIELDS, "model")
        if model["mode"] not in ("dsf", "dlow"):
            raise ValueError(f"unknown sampler mode {model['mode']!r}")
        for key, kind in (("K", "count"), ("n_z", "count"), ("seed", "index")):
            _check_value(key, model[key], kind)
        train_config = _check_object(model["train_config"], "model train_config")
        k, n_z = model["K"], model["n_z"]
        shapes = {"codes": (k, n_z)} if model["mode"] == "dsf" else {"A": (k, n_z, n_z), "b": (k, n_z)}
        params = _check_object(model["params"], "model params")
        _require_keys(params, shapes, "model params")
        for name, shape in shapes.items():
            found = _float_array(name, params[name]).shape
            if found != shape:
                raise ValueError(f"{name} of shape {found} does not match K={k}, n_z={n_z}")
        decoder = decoder_from_config(model["decoder"])
        if decoder.n_z != n_z:
            raise ValueError(f"decoder of n_z={decoder.n_z} does not match n_z={n_z}")
        _kernel_config(train_config.get("kernel", {}))
        fix_first = train_config.get("fix_first_identity", False)
        _check_value("fix_first_identity", fix_first, "flag")
        if model["mode"] == "dlow" and "featurization" in params:
            size = _float_array("featurization", params["featurization"]).size
            unit = (k - fix_first) * (n_z * n_z + n_z)  # the Ma_k and Mb_k entries of one context feature
            if (size % unit or not size) if unit else size:  # no entries when every flow is fixed
                raise ValueError(f"featurization has {size} entries, not a positive multiple of {unit}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return decoder


def write_model(path, model: dict) -> None:
    _model(model, Path(path))  # the path as read_model names it
    _write_object(path, model)


def read_model_and_decoder(path) -> tuple[dict, object]:
    """A model file's fields and the decoder its check built."""
    path = Path(path)
    model = _check_object(json.loads(path.read_text()), f"{path}: model")
    _check_version(model, path)
    return model, _model(model, path)


def read_model(path) -> dict:
    return read_model_and_decoder(path)[0]


def _dpp_map(selected, k: int):
    """A sample record's DPP MAP subset: None, or a list of distinct integer
    indices into its K samples."""
    if selected is None:
        return None
    if not isinstance(selected, (list, tuple)):
        raise ValueError(f"dpp_map must be null or a list of sample indices, got {selected!r}")
    for i in (i for i in selected if type(i) is not int):  # a JSON integer needs no ABC check
        _check_value("dpp_map entry", i, "integer")
    if not all(0 <= i < k for i in selected) or len(set(selected)) < len(selected):
        raise ValueError(f"dpp_map must hold distinct indices in [0, {k}), got {list(selected)}")
    return list(map(int, selected))


def _sample_record(rec: dict, seen: set) -> dict:
    """The one check of a sample record, written or read: an integer id that
    no earlier record used, a K x T x D ``samples`` array and its ``dpp_map``."""
    key = _new_id(rec["id"], seen, "sample")
    samples = SampleSet(rec["samples"]).samples
    return {"id": key, "samples": samples, "dpp_map": _dpp_map(rec.get("dpp_map"), len(samples))}


def _sample_row(rec: dict) -> dict:
    """A checked sample record as written: without "dpp_map" when it is null."""
    return {key: value for key, value in dict(rec, samples=rec["samples"].tolist()).items() if value is not None}


def write_samples(path, records: list[dict], meta: dict | None = None) -> None:
    """JSON lines: header, then {"id", "samples", optional "dpp_map"} per line."""
    seen = set()  # the ids of the records written so far
    _write_lines(path, "samples", meta or {}, (_sample_row(_sample_record(rec, seen)) for rec in records))


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


def train_config_from_dict(block: dict) -> TrainConfig:
    _reject_unknown(block, TrainConfig.__dataclass_fields__, "train config")
    kernel = _kernel_config(block.get("kernel", {}))
    energy_block = block.get("energy", {})
    _reject_unknown(energy_block, EnergyConfig.__dataclass_fields__, "energy config")
    return TrainConfig(**dict(block, kernel=kernel, energy=EnergyConfig(**energy_block)))


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
