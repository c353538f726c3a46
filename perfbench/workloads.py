"""The benchmark's workloads: generated config files plus a fixed sequence of
``divtraj`` CLI stages.

Each workload puts most of its time into a different layer (see README.md).
The workload seed picks the ``readme-crossroad`` dataset and baseline draws,
so the same seed gives byte-identical inputs and, through the CLI's own
determinism, byte-identical artifacts. Training initialisation and the linear
decoder's weights are fixed: across workload seeds they would swing the
quality metrics (APD by 10-20%) far more than any regression worth catching.
For the same reason the two small datasets are fixed too. ``dlow-sweep``
trains on the criterion-8 dataset: with 24 examples, a seeded dataset moves
its mean APD and MMADE by about 10% (quartile spread over ten seeds), and the
sampling draws by about 40%. A seeded ``dpp-map-k100`` dataset moved its
mean MMADE by about 2.5% over ten seeds, and by up to 6%, at 32 examples.

``dlow-sweep`` and ``dpp-map-k100`` are sized so that one pass of their
stages takes 3-5 s on a 2-vCPU Xeon VM, so a 30-s run takes the median of
six or more passes. With two or three passes, the first pass, which runs cold
in a child interpreter, would weigh on the median, and whether a third pass
fits would change the figure from run to run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CROSSROAD_DECODER = {
    "kind": "crossroad",
    "mode_probs": [0.8, 0.1, 0.1],
    "speed": 1.0,
    "t_steps": 3,
    "within_mode_scale": 0.3,
}

DLOW_ENERGY = {"sigma_d": 10.0, "lambda_d": 25.0, "lambda_r": 2.0}
TRAIN_SEED = 0
DECODER_SEED = 12345


@dataclass(frozen=True)
class Stage:
    """One CLI invocation and the byte-stable artifacts it writes.

    ``artifacts`` maps each output path to its kind: ``model``, ``report``,
    ``samples``, ``metrics_json`` or ``metrics_csv``.
    """

    argv: tuple
    artifacts: dict
    eps: float | None = None  # eval stages: grouping threshold, for the metric re-check

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    configs: object  # seed -> {file name: JSON object}; always holds "gen.json"
    stages: object  # (seed, config dir, dataset path, output dir) -> list[Stage]


def gen_data_argv(config_dir: Path, data_path: Path) -> tuple:
    return ("gen-data", "--config", str(config_dir / "gen.json"), "--out", str(data_path))


def _train(config: Path, data: Path, out: Path, tag: str) -> Stage:
    model, report = out / f"model{tag}.json", out / f"report{tag}.json"
    argv = ("train", "--config", str(config), "--dataset", str(data),
            "--model-out", str(model), "--report-out", str(report))
    return Stage(argv, {model: "model", report: "report"})


def _sample(data: Path, out: Path, tag: str, omega: float) -> Stage:
    model, samples = out / f"model{tag}.json", out / f"samples{tag}.jsonl"
    argv = ("sample", "--model", str(model), "--dataset", str(data), "--out", str(samples),
            "--dpp-map", "--omega", repr(omega))
    return Stage(argv, {samples: "samples"})


def _eval(data: Path, out: Path, tag: str, eps: float, baseline_seed: int | None = None) -> Stage:
    prefix = out / f"metrics{tag}"
    argv = ["eval", "--samples", str(out / f"samples{tag}.jsonl"), "--dataset", str(data),
            "--eps", repr(eps), "--out", str(prefix)]
    if baseline_seed is not None:
        argv += ["--model", str(out / f"model{tag}.json"), "--seed", str(baseline_seed)]
    artifacts = {prefix.with_suffix(".json"): "metrics_json", prefix.with_suffix(".csv"): "metrics_csv"}
    return Stage(tuple(argv), artifacts, eps=eps)


def _seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


# --- readme-crossroad ---------------------------------------------------------


def _readme_configs(seed: int) -> dict:
    data_seed, _ = _seeds(seed, 2)
    return {
        "gen.json": {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 300, "seed": data_seed},
        "train.json": {
            "mode": "dsf", "k": 10, "iters": 300, "lr": 0.01, "seed": TRAIN_SEED,
            "kernel": {"sim_scale": 8.0, "base_quality": 1.0, "rho": 0.9, "latent_dim": 2},
            "decoder": CROSSROAD_DECODER,
        },
    }


def _readme_stages(seed: int, cfg: Path, data: Path, out: Path) -> list:
    return [
        _train(cfg / "train.json", data, out, ""),
        _sample(data, out, "", 10.0),
        _eval(data, out, "", 1.0, baseline_seed=_seeds(seed, 2)[1]),
    ]


# --- dlow-sweep ---------------------------------------------------------------

BETAS = (1.0, 10.0, 100.0)
DLOW_DATA_SEED = 2000


def _dlow_configs(seed: int) -> dict:
    configs = {"gen.json": {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 24, "seed": DLOW_DATA_SEED}}
    for beta in BETAS:
        configs[f"train-beta{beta:g}.json"] = {
            "mode": "dlow", "k": 10, "iters": 40, "lr": 0.01, "seed": TRAIN_SEED,
            "noise_draws_per_iter": 4, "energy": dict(DLOW_ENERGY, beta=beta),
            "decoder": CROSSROAD_DECODER,
        }
    return configs


def _dlow_stages(seed: int, cfg: Path, data: Path, out: Path) -> list:
    stages = []
    for beta in BETAS:
        tag = f"-beta{beta:g}"
        stages += [
            _train(cfg / f"train{tag}.json", data, out, tag),
            _sample(data, out, tag, 10.0),
            _eval(data, out, tag, 0.02),
        ]
    return stages


# --- dpp-map-k100 -------------------------------------------------------------

LINEAR_NZ, T_STEPS, STATE_DIM = 4, 3, 2
K100_DATA_SEED = 3000


def _orthonormal_w(seed: int) -> list:
    """A (T*D, n_z) matrix with orthonormal columns (Gram-Schmidt on Gaussian
    draws), so decoded distances equal latent distances."""
    rng = random.Random(seed)
    rows = T_STEPS * STATE_DIM
    cols: list[list[float]] = []
    while len(cols) < LINEAR_NZ:
        v = [rng.gauss(0.0, 1.0) for _ in range(rows)]
        for c in cols:
            dot = sum(a * b for a, b in zip(v, c))
            v = [a - dot * b for a, b in zip(v, c)]
        norm = sum(a * a for a in v) ** 0.5
        if norm > 1e-6:
            cols.append([a / norm for a in v])
    return [[cols[j][i] for j in range(LINEAR_NZ)] for i in range(rows)]


def _k100_configs(seed: int) -> dict:
    decoder = {
        "kind": "linear", "W": _orthonormal_w(DECODER_SEED), "c0": [0.0] * (T_STEPS * STATE_DIM),
        "t_steps": T_STEPS, "state_dim": STATE_DIM,
    }
    return {
        "gen.json": {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 16, "seed": K100_DATA_SEED},
        "train.json": {
            "mode": "dlow", "k": 100, "iters": 100, "lr": 0.01, "seed": TRAIN_SEED,
            "energy": dict(DLOW_ENERGY, beta=1.0),
            "kernel": {"sim_scale": 8.0, "base_quality": 1.0, "rho": 0.9, "latent_dim": LINEAR_NZ},
            "decoder": decoder,
        },
    }


def _k100_stages(seed: int, cfg: Path, data: Path, out: Path) -> list:
    return [
        _train(cfg / "train.json", data, out, ""),
        _sample(data, out, "", 10.0),
        _eval(data, out, "", 0.04),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme-crossroad", _readme_configs, _readme_stages),
        Workload("dlow-sweep", _dlow_configs, _dlow_stages),
        Workload("dpp-map-k100", _k100_configs, _k100_stages),
    )
}
