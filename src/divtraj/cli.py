"""Command-line front end: dataset generation, sampler training, sampling,
and metric evaluation.

Every command is deterministic given its config and seed; file outputs are
byte-stable across reruns. Config files are strict JSON (unknown keys are
rejected) and individual flags override config values.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .decoders import decoder_from_config
from .dpp import _greedy_map_sets
from .fileio import (
    _TRAIN_CONFIG_KEYS,
    _kernel_config,
    metrics_to_csv,
    read_dataset,
    read_model,
    read_samples,
    report_to_dict,
    train_config_from_dict,
    train_config_to_dict,
    write_dataset,
    write_model,
    write_report,
    write_samples,
)
from .flows import AffineFlowSet, _apply_flows, _fold_features, sample_noise
from .synth import CrossroadConfig, generate_crossroad
from .trajectory import METRIC_NAMES, SampleSet, _evaluate_reports, _float_array, _reject_unknown
from .training import train_dlow, train_dsf

__all__ = ["main"]


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(block: dict, args, keys) -> dict:
    out = dict(block)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def cmd_gen_data(args) -> int:
    block = _load_json(args.config)
    _reject_unknown(block, (*CrossroadConfig.__dataclass_fields__, "out"), "gen-data config")
    block.pop("out", None)  # older configs' output path; --out gives it
    block = _apply_overrides(block, args, ["seed"])
    cfg = CrossroadConfig(**block)
    dataset = generate_crossroad(cfg)
    write_dataset(args.out, dataset)
    read_dataset(args.out)  # validation round-trip
    histogram = Counter(ex.meta.get("route", "?") for ex in dataset.examples)
    print(
        f"wrote {len(dataset)} examples to {args.out} "
        f"(T={dataset.meta['T']}, H={dataset.meta['H']}, D={dataset.meta['D']}) "
        f"routes={dict(sorted(histogram.items()))}"
    )
    return 0


def cmd_train(args) -> int:
    block = _load_json(args.config)
    _reject_unknown(block, (*_TRAIN_CONFIG_KEYS, "decoder"), "train config")
    decoder_block = block.pop("decoder", None)
    if decoder_block is None:
        raise ValueError("train config must contain a 'decoder' block")
    block = _apply_overrides(block, args, ["seed", "k"])
    cfg = train_config_from_dict(block)
    decoder = decoder_from_config(decoder_block)
    dataset = read_dataset(args.dataset)
    if cfg.mode == "dsf":
        sampler, report = train_dsf(dataset, decoder, cfg)
        params = {"codes": sampler.codes.tolist()}
    else:
        sampler, report = train_dlow(dataset, decoder, cfg)
        params = {"A": sampler.A.tolist(), "b": sampler.b.tolist()}
        if "featurization" in report.extras:
            params["featurization"] = report.extras["featurization"]
    every = max(1, cfg.iters // 10)
    for entry in report.trace[::every]:
        print(f"iter {entry['iter']:4d} loss {entry['total']:.6f}")
    print(f"final loss {report.final_loss:.6f} (wall {report.wall_time:.2f}s)")
    model = {
        "mode": cfg.mode,
        "n_z": decoder.n_z,
        "K": cfg.k,
        "params": params,
        "decoder": decoder_block,
        "train_config": train_config_to_dict(cfg),
        "seed": cfg.seed,
    }
    write_model(args.model_out, model)
    read_model(args.model_out)
    write_report(args.report_out, report_to_dict(report))
    print(f"wrote model to {args.model_out}, report to {args.report_out}")
    return 0


def _decode(decoder, latents: np.ndarray, examples) -> np.ndarray:
    """Samples (M, K, T, D) from (M, K, n_z) latents: one decode of every
    code, plus each example's context offset."""
    samples = decoder.decode_batch(latents)
    offsets = np.stack([decoder.context_offset(ex.context) for ex in examples])
    return samples + offsets.reshape(len(examples), 1, *samples.shape[2:])


def _model_latents(model: dict, examples, seed: int) -> np.ndarray:
    """The model's (M, K, n_z) latent codes for each example: the DSF codes, or
    the DLow flows applied to the example's own noise draw."""
    params = model["params"]
    if model["mode"] == "dsf":
        codes = _float_array("codes", params["codes"])
        return np.broadcast_to(codes, (len(examples),) + codes.shape)
    a, b = _float_array("A", params["A"]), _float_array("b", params["b"])
    if "featurization" in params:  # each example's own flows, (M, K, n_z, n_z) and (M, K, n_z)
        k0 = int(model["train_config"].get("fix_first_identity", False))
        features = np.stack([ex.context.features for ex in examples])
        a, b = _fold_features(a, b, params["featurization"], features, k0)
    flows = AffineFlowSet(A=a.reshape(-1, *a.shape[-2:]), b=b.reshape(-1, b.shape[-1]))  # all valid
    eps = np.stack([sample_noise([seed, ex.id], flows.n_z) for ex in examples])
    return _apply_flows(a, b, eps)


def cmd_sample(args) -> int:
    model = read_model(args.model)
    decoder = decoder_from_config(model["decoder"])
    dataset = read_dataset(args.dataset)
    k = model["K"]
    seed = args.seed if args.seed is not None else model["seed"]
    kcfg = _kernel_config(model["train_config"].get("kernel", {}), base_quality=args.omega)
    examples = dataset.examples
    records = []
    if examples:  # nothing to stack: an empty dataset gets a header-only file
        latents = _model_latents(model, examples, seed)
        samples = _decode(decoder, latents, examples)
        records = [{"id": ex.id, "samples": s} for ex, s in zip(examples, samples)]
        if args.dpp_map:
            maps = _greedy_map_sets(samples.reshape(len(examples), k, -1), latents, kcfg)
            for rec, selected in zip(records, maps):
                rec["dpp_map"] = selected
    meta = {"model_mode": model["mode"], "K": k, "seed": seed, "omega": args.omega}
    write_samples(args.out, records, meta=meta)
    read_samples(args.out)
    map_sizes = Counter(len(rec["dpp_map"]) for rec in records if "dpp_map" in rec)
    note = f" map sizes={dict(sorted(map_sizes.items()))}" if args.dpp_map else ""
    print(f"wrote {len(records)} sample sets (K={k}) to {args.out}{note}")
    return 0


def _sample_sets(records: list[dict]) -> dict:
    return {rec["id"]: SampleSet(samples=rec["samples"], context_id=rec["id"]) for rec in records}


def cmd_eval(args) -> int:
    if args.model is not None and args.seed is None:
        raise ValueError("baseline comparison needs --seed alongside --model")
    if args.seed is not None and args.model is None:
        raise ValueError("baseline comparison needs --model alongside --seed")
    dataset = read_dataset(args.dataset)
    sample_set_maps = [_sample_sets(read_samples(args.samples))]
    if args.model is not None and dataset.examples:  # no examples, nothing to decode: _evaluate_reports says so
        model = read_model(args.model)
        decoder = decoder_from_config(model["decoder"])
        examples = dataset.examples
        shape = (model["K"], model["n_z"])  # best-of-K metrics compare at the model's K
        latents = np.stack([sample_noise([args.seed, ex.id], shape) for ex in examples])
        samples = _decode(decoder, latents, examples)
        sample_set_maps.append(_sample_sets([{"id": ex.id, "samples": s} for ex, s in zip(examples, samples)]))
    # the samples and the baseline share one pass over the context groups
    report, *baseline = _evaluate_reports(dataset, sample_set_maps, args.eps)
    out_prefix = Path(args.out)
    payload = {
        "conventions": report.conventions,
        "eps": args.eps,
        "means": report.means,
        "per_example": list(report.per_example),
    }
    if baseline:
        payload["baseline_means"] = baseline[0].means
    csv_path = out_prefix.with_suffix(".csv")
    json_path = out_prefix.with_suffix(".json")
    csv_path.write_text(metrics_to_csv(report))
    write_report(json_path, payload)
    print("means: " + " ".join(f"{name}={report.means[name]:.4f}" for name in METRIC_NAMES))
    if "baseline_means" in payload:
        print(
            "baseline: "
            + " ".join(f"{name}={payload['baseline_means'][name]:.4f}" for name in METRIC_NAMES)
        )
    sizes = report.group_sizes
    print(f"groups: min={min(sizes)} mean={np.mean(sizes):.1f} max={max(sizes)}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divtraj",
        description="Diversity-aware trajectory sampling: data generation, sampler training, sampling, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic crossroad dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int)

    p_train = sub.add_parser("train", help="train a sampler against a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--model-out", required=True)
    p_train.add_argument("--report-out", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--k", type=int)

    p_sample = sub.add_parser("sample", help="decode sampler outputs for every example")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--dataset", required=True)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--omega", type=float, default=1.0)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--dpp-map", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate sample files against a dataset")
    p_eval.add_argument("--samples", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--eps", type=float, required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--model")
    p_eval.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handlers are looked up at every call, not kept in the cached parser,
    # so a wrapper set on this module after the first call runs too
    handler = {"gen-data": cmd_gen_data, "train": cmd_train, "sample": cmd_sample, "eval": cmd_eval}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
