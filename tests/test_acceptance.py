"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 carries two direction clauses for the beta sweep, and both hold
and are checked: decoded-set APD falls as beta rises (8a), and the mean flow
KL falls as beta rises (8b). Beta weights the nonnegative KL penalty, and
along a penalty path the optimal penalty value is non-increasing in its weight.
"""
import functools
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import divtraj as dt
from divtraj.cli import main as cli_main
from divtraj.training import _DlowObjective, _DsfObjective
from tests.acceptance_report import record
from tests.test_dpp import kernel_from_matrix, random_psd_kernel


def report_line(number, label, passed):
    # collected for the terminal summary; also printed for `pytest -s` runs
    print(record(number, label, passed))


def checked(number, label):
    """Decorator printing the criterion PASS/FAIL line."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                report_line(number, label, False)
                raise
            report_line(number, label, True)
            return result

        return inner

    return wrap


RNG_KERNELS = np.random.default_rng(20240901)
SHARED_KERNELS = [
    random_psd_kernel(RNG_KERNELS, int(RNG_KERNELS.integers(1, 11))) for _ in range(200)
]


@checked(1, "DPP normalization identity on 200 random PSD kernels")
def test_criterion_1_normalization_identity():
    start = time.perf_counter()
    for kernel in SHARED_KERNELS:
        n = kernel.n
        out = dt.brute_force_oracle(kernel)
        expected = float(np.linalg.det(kernel.L + np.eye(n)))
        assert out["normalization"] == pytest.approx(expected, rel=1e-8)
    assert time.perf_counter() - start < 5.0


@checked(2, "expected-cardinality three-way agreement")
def test_criterion_2_cardinality_three_way():
    assert dt.expected_cardinality(kernel_from_matrix(np.diag([3.0, 1.0]))) == pytest.approx(1.25)
    for kernel in SHARED_KERNELS:
        n = kernel.n
        eig_sum = dt.expected_cardinality(kernel)
        trace_form = float(np.trace(np.eye(n) - np.linalg.inv(kernel.L + np.eye(n))))
        brute = dt.brute_force_oracle(kernel)["expected_card"]
        assert eig_sum == pytest.approx(trace_form, rel=1e-8, abs=1e-12)
        assert eig_sum == pytest.approx(brute, rel=1e-8, abs=1e-12)


@checked(3, "quality scaling strictly increases expected cardinality")
def test_criterion_3_quality_scaling():
    rng = np.random.default_rng(3)
    cfg = dt.KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        ground = dt.GroundSet(items=rng.normal(size=(n, 4)), latents=rng.normal(size=(n, 2)))
        base = dt.expected_cardinality(dt.build_kernel(ground, cfg))
        assert base > 0
        for c in (1.5, 2.0, 4.0):
            scaled_cfg = dt.KernelConfig(sim_scale=1.0, base_quality=c, rho=0.9)
            scaled = dt.expected_cardinality(dt.build_kernel(ground, scaled_cfg))
            assert scaled > base


@checked(4, "greedy MAP diagonal-kernel law and duplicate exclusion")
def test_criterion_4_greedy_diagonal_law():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        diag = np.round(rng.uniform(0.2, 3.0, size=n), 3)
        got = dt.greedy_map(kernel_from_matrix(np.diag(diag)))
        want = sorted([i for i in range(n) if diag[i] >= 1.0], key=lambda i: (-diag[i], i))
        assert got == want
    # exact duplicates (rank-1 pair) are never co-selected
    L = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    sel = dt.greedy_map(kernel_from_matrix(L))
    assert sorted(sel) == [0, 2]


@checked(5, "analytic KL closed form and nonnegativity")
def test_criterion_5_kl_closed_form():
    ident = dt.AffineFlowSet.identity(1, 2)
    assert dt.kl_to_standard_normal(ident, 0) == pytest.approx(0.0, abs=1e-9)
    shift = dt.AffineFlowSet(A=np.eye(2)[None], b=np.array([[1.0, 0.0]]))
    assert dt.kl_to_standard_normal(shift, 0) == pytest.approx(0.5, abs=1e-9)
    scale = dt.AffineFlowSet(A=2.0 * np.eye(2)[None], b=np.zeros((1, 2)))
    expected = 0.5 * (8.0 - 2.0 - np.log(16.0))
    assert expected == pytest.approx(1.6137, abs=1e-4)
    assert dt.kl_to_standard_normal(scale, 0) == pytest.approx(expected, abs=1e-9)

    rng = np.random.default_rng(5)
    n_z = 3
    a = rng.normal(size=(10_000, n_z, n_z)) + 1.5 * np.eye(n_z)
    keep = np.abs(np.linalg.det(a)) > 1e-9
    flows = dt.AffineFlowSet(A=a[keep], b=rng.normal(size=(int(keep.sum()), n_z)))
    assert np.all(dt.kl_to_standard_normal(flows) >= -1e-12)

    from scipy.stats import ortho_group

    qs = ortho_group.rvs(4, size=50, random_state=np.random.default_rng(6))
    ortho = dt.AffineFlowSet(A=qs, b=np.zeros((50, 4)))
    np.testing.assert_allclose(dt.kl_to_standard_normal(ortho), 0.0, atol=1e-10)


@checked(6, "analytic gradients match finite differences (50 instances)")
def test_criterion_6_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(60)

    def linear_decoder(n_z):
        t, d = int(rng.integers(1, 4)), 2
        return dt.LinearDecoder(
            W=rng.normal(size=(t * d, n_z)), c0=rng.normal(size=t * d), t_steps=t, state_dim=d
        )

    def rel_err(g_a, g_n):
        return np.max(np.abs(g_a - g_n)) / max(1.0, np.max(np.abs(g_n)))

    worst = 0.0
    for i in range(50):
        n_z = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        dec = linear_decoder(n_z)
        if i % 2 == 0:
            kcfg = dt.KernelConfig(
                sim_scale=float(rng.uniform(0.3, 2.0)),
                base_quality=float(rng.uniform(0.5, 2.0)),
                rho=0.9,
            )
            obj = _DsfObjective(dec, kcfg, k)
            params = rng.normal(scale=1.2, size=k * n_z)
        else:
            examples = [
                dt.Example(
                    context=dt.Context(past=np.zeros((1, 2))),
                    future=rng.normal(size=(dec.t_steps, 2)),
                    id=j,
                )
                for j in range(2)
            ]
            cfg = dt.TrainConfig(
                mode="dlow", k=k, noise_draws_per_iter=3, seed=0,
                energy=dt.EnergyConfig(
                    sigma_d=float(rng.uniform(2.0, 10.0)), lambda_d=5.0, lambda_r=1.5, beta=0.7
                ),
            )
            obj = _DlowObjective(dec, examples, cfg, rng.standard_normal((3, n_z)))
            a = np.tile(np.eye(n_z), (k, 1, 1)) + rng.normal(scale=0.15, size=(k, n_z, n_z))
            params = obj.pack(dt.AffineFlowSet(A=a, b=rng.normal(scale=0.4, size=(k, n_z))))
        g_n = dt.numeric_gradient(lambda p: obj.evaluate(p)[0]["total"], params, 1e-5)
        err = rel_err(obj.evaluate(params)[1], g_n)
        worst = max(worst, err)
    assert worst < 1e-4
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# Criterion 7: mode-coverage reproduction of the synthetic experiment
# ---------------------------------------------------------------------------

PROBS = (0.8, 0.1, 0.1)
DSF_KERNEL = dt.KernelConfig(sim_scale=8.0, base_quality=1.0, rho=0.9)
DSF_DECODER = dt.CrossroadDecoder(mode_probs=PROBS, speed=1.0, t_steps=3, within_mode_scale=0.3)


@pytest.fixture(scope="module")
def crossroad_data():
    return dt.generate_crossroad(
        dt.CrossroadConfig(mode_probs=PROBS, n_examples=1000, seed=1000)
    )


@pytest.fixture(scope="module")
def trained_dsf_codes(crossroad_data):
    out = {}
    for seed in range(10):
        cfg = dt.TrainConfig(mode="dsf", k=10, iters=300, lr=0.01, seed=seed, kernel=DSF_KERNEL)
        codes, _ = dt.train_dsf(crossroad_data.examples[0].context, DSF_DECODER, cfg)
        out[seed] = codes.codes
    return out


@checked(7, "synthetic-experiment direction: coverage, APD/ASD up, MMADE down")
def test_criterion_7_mode_coverage(crossroad_data, trained_dsf_codes):
    start = time.perf_counter()
    k = 10
    contexts = [ex.context for ex in crossroad_data.examples]

    # (a) i.i.d. baseline: all-three-modes frequency over 1000 contexts
    analytic = 1.0 - 2.0 * 0.9**k + 0.8**k
    assert analytic == pytest.approx(0.4100, abs=2e-4)
    covered = 0
    for i, ex in enumerate(crossroad_data.examples):
        draws = np.random.default_rng([404, ex.id]).standard_normal((k, 2))
        covered += len(set(DSF_DECODER.sector_of(draws).tolist())) == 3
    freq = covered / len(crossroad_data.examples)
    assert abs(freq - 0.41) <= 0.05

    # (b) trained sampler coverage across contexts (mode selection is
    # context-free, so coverage is uniform across contexts per seed) and
    # across 100 shorter seeded runs
    per_seed_cover = [
        len(set(DSF_DECODER.sector_of(codes).tolist())) == 3
        for codes in trained_dsf_codes.values()
    ]
    assert np.mean(per_seed_cover) >= 0.95
    runs_covered = 0
    ctx0 = contexts[0]
    for seed in range(100):
        cfg = dt.TrainConfig(mode="dsf", k=k, iters=100, lr=0.01, seed=seed, kernel=DSF_KERNEL)
        codes, _ = dt.train_dsf(ctx0, DSF_DECODER, cfg)
        runs_covered += len(set(DSF_DECODER.sector_of(codes.codes).tolist())) == 3
    assert runs_covered >= 95

    # (c) trained APD/ASD strictly above and MMADE strictly below the
    # i.i.d. baseline, means over the 10 seeds (100-context evaluation)
    futures = np.stack([ex.future for ex in crossroad_data.examples])
    eval_examples = crossroad_data.examples[:100]

    def metrics_for(latents_fn):
        apds, asds, mmades = [], [], []
        for ex in eval_examples:
            samples = DSF_DECODER.decode_batch(latents_fn(ex), ex.context)
            ss = dt.SampleSet(samples=samples)
            apds.append(dt.apd(ss))
            asds.append(dt.asd_fsd(ss)[0])
            dists = np.linalg.norm(samples[:, None] - futures[None], axis=3).mean(axis=2)
            mmades.append(dists.min(axis=0).mean())
        return np.mean(apds), np.mean(asds), np.mean(mmades)

    trained_rows, baseline_rows = [], []
    for seed, codes in trained_dsf_codes.items():
        trained_rows.append(metrics_for(lambda ex: codes))
        baseline_rows.append(
            metrics_for(
                lambda ex: np.random.default_rng([seed, ex.id]).standard_normal((k, 2))
            )
        )
    t_apd, t_asd, t_mm = np.mean(trained_rows, axis=0)
    b_apd, b_asd, b_mm = np.mean(baseline_rows, axis=0)
    assert t_apd > b_apd
    assert t_asd > b_asd
    assert t_mm < b_mm
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# Criterion 8: DLow beta trade-off sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def beta_sweep_results():
    data = dt.generate_crossroad(dt.CrossroadConfig(mode_probs=PROBS, n_examples=24, seed=2000))
    dec = DSF_DECODER
    out = {}
    start = time.perf_counter()
    for beta in (1.0, 10.0, 100.0):
        apds, kls = [], []
        for seed in range(5):
            cfg = dt.TrainConfig(
                mode="dlow", k=10, iters=150, lr=0.01, seed=seed, noise_draws_per_iter=4,
                energy=dt.EnergyConfig(sigma_d=10.0, lambda_d=25.0, lambda_r=2.0, beta=beta),
            )
            flows, _ = dt.train_dlow(data, dec, cfg)
            kls.append(float(np.mean(dt.kl_to_standard_normal(flows))))
            vals = []
            for j in range(20):
                eps = np.random.default_rng([seed, 777, j]).standard_normal(2)
                decoded = dec.decode_batch(dt.apply_flows(flows, eps), data.examples[0].context)
                vals.append(dt.apd(dt.SampleSet(samples=decoded)))
            apds.append(float(np.mean(vals)))
        out[beta] = {"apd": float(np.mean(apds)), "kl": float(np.mean(kls))}
    out["elapsed"] = time.perf_counter() - start
    return out


@checked("8a", "beta sweep: decoded-set APD strictly decreasing in beta")
def test_criterion_8a_apd_direction(beta_sweep_results):
    r = beta_sweep_results
    assert r[1.0]["apd"] > r[10.0]["apd"] > r[100.0]["apd"]
    assert r["elapsed"] < 120.0


@checked("8b", "beta sweep: mean flow-KL strictly decreasing in beta")
def test_criterion_8b_kl_direction_as_stated(beta_sweep_results):
    """Mean flow KL strictly decreasing across beta in {1, 10, 100}.

    Beta multiplies the nonnegative KL penalty in the DLow objective
    f + beta * KL. Writing the optimality of each minimiser at the other's
    weight and adding the two inequalities gives
    (beta2 - beta1) * (KL(beta1) - KL(beta2)) >= 0, so a larger beta buys
    likelihood: the trained flows sit closer to N(0, I).
    """
    r = beta_sweep_results
    kl_1, kl_10, kl_100 = r[1.0]["kl"], r[10.0]["kl"], r[100.0]["kl"]
    valid = all(np.isfinite(k) and k >= 0.0 for k in (kl_1, kl_10, kl_100))
    assert valid and kl_1 > kl_10 > kl_100, (
        "mean flow-KL is not nonnegative and strictly decreasing in beta: got "
        f"{kl_1:.5f} (beta=1), {kl_10:.5f} (beta=10), {kl_100:.5f} (beta=100); beta weights the "
        "nonnegative KL penalty, so training must drive KL down as beta grows"
    )


@checked(9, "controllable mode: similar-slice distance under 10% of diverse-slice")
def test_criterion_9_controllable_mode():
    t_steps, d = 3, 2
    dec = dt.LinearDecoder(
        W=np.eye(t_steps * d), c0=np.zeros(t_steps * d), t_steps=t_steps, state_dim=d
    )
    data = dt.generate_crossroad(dt.CrossroadConfig(mode_probs=PROBS, n_examples=8, seed=123))
    ratios = []
    for seed in range(5):
        cfg = dt.TrainConfig(
            mode="dlow", k=8, iters=400, lr=0.02, seed=seed, noise_draws_per_iter=16,
            energy=dt.EnergyConfig(
                sigma_d=5.0, lambda_d=25.0, lambda_r=0.5, lambda_s=100.0, beta=1.0,
                joint_split=((0,), (1,)),
            ),
        )
        flows, _ = dt.train_dlow(data, dec, cfg)
        per_draw = []
        for j in range(20):
            eps = np.random.default_rng([seed, 55, j]).standard_normal(dec.n_z)
            samples = dec.decode_batch(dt.apply_flows(flows, eps), None)
            xs = samples[:, :, 0].reshape(len(samples), -1)
            yd = samples[:, :, 1].reshape(len(samples), -1)
            off = ~np.eye(len(samples), dtype=bool)
            pd_s = np.linalg.norm(xs[:, None] - xs[None], axis=2)[off].mean()
            pd_d = np.linalg.norm(yd[:, None] - yd[None], axis=2)[off].mean()
            per_draw.append(pd_s / pd_d)
        ratios.append(np.mean(per_draw))
    assert np.mean(ratios) < 0.10


@checked(10, "metric unit suite green and under 60 s")
def test_criterion_10_unit_suite():
    unit_files = [
        "tests/test_trajectory.py",
        "tests/test_dpp.py",
        "tests/test_flows.py",
        "tests/test_energy.py",
        "tests/test_decoders.py",
        "tests/test_synth.py",
        "tests/test_training.py",
        "tests/test_cli.py",
    ]
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *unit_files],
        cwd=root,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60.0


@checked(11, "pipeline determinism: byte-identical outputs on rerun")
def test_criterion_11_pipeline_determinism(tmp_path):
    gen_cfg = {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 20, "seed": 11}
    train_cfg = {
        "mode": "dsf", "k": 6, "iters": 30, "lr": 0.02, "seed": 5,
        "kernel": {"sim_scale": 8.0, "base_quality": 1.0, "rho": 0.9},
        "decoder": {
            "kind": "crossroad", "mode_probs": [0.8, 0.1, 0.1], "speed": 1.0,
            "t_steps": 3, "within_mode_scale": 0.3,
        },
    }
    (tmp_path / "gen.json").write_text(json.dumps(gen_cfg))
    (tmp_path / "train.json").write_text(json.dumps(train_cfg))
    hashes = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        steps = [
            ["gen-data", "--config", tmp_path / "gen.json", "--out", d / "d.jsonl"],
            [
                "train", "--config", tmp_path / "train.json", "--dataset", d / "d.jsonl",
                "--model-out", d / "m.json", "--report-out", d / "r.json",
            ],
            [
                "sample", "--model", d / "m.json", "--dataset", d / "d.jsonl",
                "--out", d / "s.jsonl", "--dpp-map",
            ],
            [
                "eval", "--samples", d / "s.jsonl", "--dataset", d / "d.jsonl",
                "--eps", "0.5", "--out", d / "report", "--model", d / "m.json", "--seed", "7",
            ],
        ]
        for step in steps:
            assert cli_main([str(a) for a in step]) == 0
        files = ("d.jsonl", "m.json", "r.json", "s.jsonl", "report.json", "report.csv")
        hashes.append(tuple(hashlib.sha256((d / f).read_bytes()).hexdigest() for f in files))
    assert hashes[0] == hashes[1]
