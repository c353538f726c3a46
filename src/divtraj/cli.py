"""Command-line front end: dataset generation, sampler training, sampling,
and metric evaluation.

Every command is deterministic given its config and seed; file outputs are
byte-stable across reruns. Config files are strict JSON (unknown keys are
rejected); ``--seed`` overrides a config's seed.
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
    _kernel_config,
    metrics_to_csv,
    read_dataset,
    read_model_and_decoder,
    read_samples,
    report_to_dict,
    train_config_from_dict,
    train_config_to_dict,
    write_dataset,
    write_model,
    write_report,
    write_samples,
)
from .flows import _apply_flows, _check_invertible, _fold_features, sample_noise
from .synth import CrossroadConfig, generate_crossroad
from .trajectory import METRIC_NAMES, _check_object, _check_value, _evaluate_reports, _reject_unknown
from .training import _check_decoder_shape, train_dlow, train_dsf

__all__ = ["main"]


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _with_seed(block: dict, args) -> dict:
    return block if args.seed is None else dict(block, seed=args.seed)


def cmd_gen_data(args) -> int:
    block = _load_json(args.config)
    _reject_unknown(block, CrossroadConfig.__dataclass_fields__, "gen-data config")
    cfg = CrossroadConfig(**_with_seed(block, args))
    dataset = generate_crossroad(cfg)
    write_dataset(args.out, dataset)
    histogram = Counter(ex.meta.get("route", "?") for ex in dataset.examples)
    print(
        f"wrote {len(dataset)} examples to {args.out} "
        f"(T={dataset.meta['T']}, H={dataset.meta['H']}, D={dataset.meta['D']}) "
        f"routes={dict(sorted(histogram.items()))}"
    )
    return 0


def cmd_train(args) -> int:
    block = _check_object(_load_json(args.config), "train config")
    decoder_block = block.pop("decoder", None)
    if decoder_block is None:
        raise ValueError("train config must contain a 'decoder' block")
    cfg = train_config_from_dict(_with_seed(block, args))
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
    write_report(args.report_out, report_to_dict(report))
    print(f"wrote model to {args.model_out}, report to {args.report_out}")
    return 0


def _decode(decoder, latents: np.ndarray, examples) -> np.ndarray:
    """Samples (M, K, T, D) from (M, K, n_z) latents: one decode of every
    code, plus each example's context offset. A decoder whose (T, D) is not
    the examples' is rejected first, as in ``train``."""
    _check_decoder_shape(decoder, examples)
    samples = decoder.decode_batch(latents)
    offsets = np.stack([decoder.context_offset(ex.context) for ex in examples])
    return samples + offsets.reshape(len(examples), 1, *samples.shape[2:])


def _model_latents(model: dict, examples, seed: int) -> np.ndarray:
    """The (M, K, n_z) latent codes of a model from ``read_model`` for each
    example: the DSF codes, or the DLow flows applied to its own noise draw."""
    params = model["params"]
    if model["mode"] == "dsf":
        codes = np.asarray(params["codes"], dtype=float)
        return np.broadcast_to(codes, (len(examples),) + codes.shape)
    a, b = np.asarray(params["A"], dtype=float), np.asarray(params["b"], dtype=float)
    if "featurization" in params:  # each example's own flows, (M, K, n_z, n_z) and (M, K, n_z)
        k0 = int(model["train_config"].get("fix_first_identity", False))
        features = np.stack([ex.context.features for ex in examples])
        a, b = _fold_features(a, b, params["featurization"], features, k0)
    _check_invertible(a)
    eps = np.stack([sample_noise([seed, ex.id], a.shape[-1]) for ex in examples])
    return _apply_flows(a, b, eps)


def cmd_sample(args) -> int:
    _check_value("--omega", args.omega, "positive")
    model, decoder = read_model_and_decoder(args.model)
    dataset = read_dataset(args.dataset)
    k = model["K"]
    seed = args.seed if args.seed is not None else model["seed"]
    kcfg = _kernel_config(model["train_config"].get("kernel", {}), base_quality=args.omega)
    examples = dataset.examples
    records = []
    if examples:  # nothing to stack: an empty dataset gets a header-only file
        latents = _model_latents(model, examples, seed)
        samples = _decode(decoder, latents, examples)
        maps = [None] * len(examples)  # write_samples leaves a null dpp_map out
        if args.dpp_map:
            maps = _greedy_map_sets(samples.reshape(len(examples), k, -1), latents, kcfg)
        records = [{"id": ex.id, "samples": s, "dpp_map": m} for ex, s, m in zip(examples, samples, maps)]
    meta = {"model_mode": model["mode"], "K": k, "seed": seed, "omega": args.omega}
    write_samples(args.out, records, meta=meta)
    map_sizes = Counter(len(rec["dpp_map"]) for rec in records if args.dpp_map)
    note = f" map sizes={dict(sorted(map_sizes.items()))}" if args.dpp_map else ""
    print(f"wrote {len(records)} sample sets (K={k}) to {args.out}{note}")
    return 0


def cmd_eval(args) -> int:
    _check_value("--eps", args.eps, "nonnegative")  # before any file is read; JSON has no inf to record
    if args.model is not None and args.seed is None:
        raise ValueError("baseline comparison needs --seed alongside --model")
    if args.seed is not None and args.model is None:
        raise ValueError("baseline comparison needs --model alongside --seed")
    dataset = read_dataset(args.dataset)
    sample_set_maps = [{rec["id"]: rec["samples"] for rec in read_samples(args.samples)}]
    if args.model is not None and dataset.examples:  # no examples, nothing to decode: _evaluate_reports says so
        model, decoder = read_model_and_decoder(args.model)
        examples = dataset.examples
        shape = (model["K"], model["n_z"])  # best-of-K metrics compare at the model's K
        latents = np.stack([sample_noise([args.seed, ex.id], shape) for ex in examples])
        samples = _decode(decoder, latents, examples)
        sample_set_maps.append({ex.id: s for ex, s in zip(examples, samples)})
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
        if args.seed is not None:  # every command takes --seed
            _check_value("--seed", args.seed, "index")
        return handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
