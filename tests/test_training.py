"""Optimizer and trainer tests: oracles, worked examples, determinism."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from divtraj import (
    AdamState,
    AffineFlowSet,
    Context,
    CrossroadDecoder,
    Dataset,
    EnergyConfig,
    Example,
    KernelConfig,
    LinearDecoder,
    TabulatedDecoder,
    TrainConfig,
    adam_step,
    apply_flows,
    build_kernel,
    dsf_loss,
    expected_cardinality,
    generate_crossroad,
    kl_to_standard_normal,
    numeric_gradient,
    quality_radius,
    train_dlow,
    train_dsf,
)
from divtraj.dpp import GroundSet
from divtraj.fileio import report_to_dict
from divtraj.flows import DsfCodes
from divtraj.synth import CrossroadConfig
from divtraj.training import _DlowObjective, _DsfObjective, _run_optimizer


class TestNumericGradient:
    def test_quadratic(self):
        g = numeric_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-4)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_exact(self):
        c = np.array([2.0, -1.5, 0.25])
        g = numeric_gradient(lambda x: float(c @ x), np.array([1.0, 2.0, -3.0]), 1e-4)
        np.testing.assert_allclose(g, c, atol=1e-9)

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(ValueError):
            numeric_gradient(lambda x: float("nan"), np.zeros(2), 1e-4)


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = AdamState.init(2)
        new, _ = adam_step(params, np.zeros(2), state, 0.1)
        np.testing.assert_array_equal(new, params)

    def test_first_step_magnitude(self):
        params = np.zeros(3)
        grad = np.array([10.0, -0.01, 3.0])
        new, state = adam_step(params, grad, AdamState.init(3), 0.05)
        # first bias-corrected step is ~ -lr * sign(g)
        np.testing.assert_allclose(np.abs(new), 0.05 * np.abs(grad) / (np.abs(grad) + 1e-8))
        np.testing.assert_allclose(np.sign(new), -np.sign(grad))
        assert state.t == 1

    def test_deterministic(self):
        params = np.array([0.5, 0.5])
        grad = np.array([1.0, -1.0])
        out1 = adam_step(params, grad, AdamState.init(2), 0.01)
        out2 = adam_step(params, grad, AdamState.init(2), 0.01)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1].m, out2[1].m)

    def test_two_steps_at_kingma_ba_constants(self):
        grads = [np.array([1.0, -2.0]), np.array([0.5, 3.0])]
        params, state = np.zeros(2), AdamState.init(2)
        m, v = np.zeros(2), np.zeros(2)
        expected = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            params, state = adam_step(params, g, state, 0.1)
            m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
            expected = expected - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(params, expected, rtol=1e-12)
        assert [f.name for f in dataclasses.fields(state)] == ["m", "v", "t"]

    @pytest.mark.parametrize("lr", [-0.1, np.nan, np.inf])
    def test_negative_or_nonfinite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)


def linear_decoder(rng, n_z=3, t=2, d=2):
    return LinearDecoder(
        W=rng.normal(size=(t * d, n_z)), c0=rng.normal(size=t * d), t_steps=t, state_dim=d
    )


def tabulated_decoder(rng, n_z=2, t=2, d=2):
    axes = tuple(np.linspace(-3.0, 3.0, 13) for _ in range(n_z))
    return TabulatedDecoder(
        z_grid=axes, table=rng.normal(size=(13,) * n_z + (t, d)), t_steps=t, state_dim=d
    )


class TestGradientFidelity:
    """Analytic vs central-difference gradients; mandatory for every
    differentiable path."""

    def rel_err(self, g_a, g_n):
        return np.max(np.abs(g_a - g_n)) / max(1.0, np.max(np.abs(g_n)))

    def test_dsf_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_z = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            dec = linear_decoder(rng, n_z=n_z)
            kcfg = KernelConfig(
                sim_scale=float(rng.uniform(0.3, 3.0)), base_quality=float(rng.uniform(0.5, 2.0)),
                rho=0.9,
            )
            obj = _DsfObjective(dec, kcfg, k)
            params = rng.normal(scale=1.1, size=k * n_z)
            g_a = obj.evaluate(params)[1]
            g_n = numeric_gradient(lambda p: obj.evaluate(p)[0]["total"], params, 1e-5)
            assert self.rel_err(g_a, g_n) < 1e-4

    def test_dlow_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(10):
            n_z = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            cases.append((linear_decoder(rng, n_z=n_z), k, False, False))
        # featurized flows on every decoder kind, first flow free and pinned
        for dec in (linear_decoder(rng), CrossroadDecoder((0.8, 0.1, 0.1), t_steps=2), tabulated_decoder(rng)):
            cases += [(dec, 3, True, False), (dec, 3, True, True)]
        for dec, k, featurized, fix_first in cases:
            n_z = dec.n_z
            examples = [
                Example(
                    context=Context(past=np.zeros((1, 2)), features=rng.normal(size=2 * featurized)),
                    future=rng.normal(size=(2, 2)),
                    id=i,
                )
                for i in range(2)
            ]
            cfg = TrainConfig(
                mode="dlow", k=k, noise_draws_per_iter=3, seed=0,
                context_featurization=featurized, fix_first_identity=fix_first,
                energy=EnergyConfig(
                    sigma_d=float(rng.uniform(1.0, 10.0)), lambda_d=5.0, lambda_r=1.5, beta=0.7
                ),
            )
            eps = rng.standard_normal((3, n_z))
            obj = _DlowObjective(dec, examples, cfg, eps)
            a = np.tile(np.eye(n_z), (k, 1, 1)) + rng.normal(scale=0.15, size=(k, n_z, n_z))
            b = rng.normal(scale=0.4, size=(k, n_z))
            params = obj.pack(AffineFlowSet(A=a, b=b))
            if featurized:  # a nonzero featurization block
                n_base = (k - fix_first) * (n_z * n_z + n_z)
                params[n_base:] = rng.normal(scale=0.2, size=params.size - n_base)
            g_a = obj.evaluate(params)[1]
            g_n = numeric_gradient(lambda p: obj.evaluate(p)[0]["total"], params, 1e-5)
            assert self.rel_err(g_a, g_n) < 1e-4

    def test_dlow_controllable_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        dec = linear_decoder(rng, n_z=4)
        examples = [
            Example(context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0)
        ]
        cfg = TrainConfig(
            mode="dlow", k=3, noise_draws_per_iter=4, seed=0,
            energy=EnergyConfig(
                sigma_d=4.0, lambda_d=5.0, lambda_r=1.0, lambda_s=2.5, beta=0.3,
                joint_split=((0,), (1,)),
            ),
        )
        eps = rng.standard_normal((4, 4))
        obj = _DlowObjective(dec, examples, cfg, eps)
        a = np.tile(np.eye(4), (3, 1, 1)) + rng.normal(scale=0.1, size=(3, 4, 4))
        params = obj.pack(AffineFlowSet(A=a, b=rng.normal(scale=0.3, size=(3, 4))))
        g_n = numeric_gradient(lambda p: obj.evaluate(p)[0]["total"], params, 1e-5)
        assert self.rel_err(obj.evaluate(params)[1], g_n) < 1e-4

    def test_trainer_fast_loss_equals_public_path(self):
        rng = np.random.default_rng(3)
        dec = linear_decoder(rng, n_z=2)
        kcfg = KernelConfig(sim_scale=1.3, base_quality=1.1, rho=0.9)
        obj = _DsfObjective(dec, kcfg, 4)
        codes = rng.normal(size=(4, 2))
        items = dec.decode_batch(codes, None).reshape(4, -1)
        kernel = build_kernel(GroundSet(items=items, latents=codes), kcfg)
        assert obj.evaluate(codes.reshape(-1))[0]["total"] == pytest.approx(dsf_loss(kernel), abs=1e-14)
        assert dsf_loss(kernel) == -expected_cardinality(kernel)


class TestDlowObjectiveMemory:
    @staticmethod
    def evaluation_peak(k: int, n_examples: int) -> int:
        """Traced peak bytes of one shared-flow evaluation with its gradient:
        K flows, 8 draws, n_z = 4, a linear decoder with T * D = 6."""
        rng = np.random.default_rng(15)
        draws, n_z = 8, 4
        dec = LinearDecoder(W=rng.normal(size=(6, n_z)), c0=np.zeros(6), t_steps=3, state_dim=2)
        examples = [
            Example(context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(3, 2)), id=i)
            for i in range(n_examples)
        ]
        cfg = TrainConfig(mode="dlow", k=k, noise_draws_per_iter=draws, seed=0)
        obj = _DlowObjective(dec, examples, cfg, rng.standard_normal((draws, n_z)))
        a = np.tile(np.eye(n_z), (k, 1, 1)) + rng.normal(scale=0.1, size=(k, n_z, n_z))
        params = obj.pack(AffineFlowSet(A=a, b=rng.normal(size=(k, n_z))))
        tracemalloc.start()
        try:
            _, grad = obj.evaluate(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(grad))
        return peak

    def test_large_ground_set_evaluation_memory_bound(self):
        # K = 400 samples, 64 examples: a dense (E, K, K, F) pair difference
        # alone is 59 MiB, a dense (M, E, K, F) reconstruction gradient 9.4 MiB
        assert self.evaluation_peak(k=400, n_examples=64) < 32 * 2**20

    def test_many_examples_evaluation_memory_bound(self):
        # K = 100 samples, 3000 examples: a dense (M, E, K, F) reconstruction
        # difference alone is 110 MiB; the (M, E, K) squared distances 18 MiB
        assert self.evaluation_peak(k=100, n_examples=3000) < 64 * 2**20


class TestRunOptimizer:
    class FailingObjective:
        """A zero loss whose ``fail_at``-th evaluation rejects its input, as
        a singular flow does."""

        def __init__(self, fail_at: int):
            self.fail_at, self.calls = fail_at, 0

        def evaluate(self, params):
            self.calls += 1
            if self.calls == self.fail_at:
                raise ValueError("flow not invertible")
            return {"total": 0.0, "terms": {}}, np.zeros_like(params)

    def test_rejected_evaluation_names_the_iteration(self):
        cfg = TrainConfig(mode="dlow", k=2, iters=4)
        with pytest.raises(ValueError, match=r"^flow not invertible at iteration 2$"):
            _run_optimizer(self.FailingObjective(3), np.zeros(3), cfg)
        # the evaluation after the last step is iteration ``iters``
        with pytest.raises(ValueError, match=r"^flow not invertible at iteration 4$"):
            _run_optimizer(self.FailingObjective(5), np.zeros(3), cfg)
        _, report = _run_optimizer(self.FailingObjective(6), np.zeros(3), cfg)
        assert len(report.trace) == 4 and report.final_loss == 0.0

    @pytest.mark.parametrize("mode", ["dsf", "dlow"])
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_final_loss_lies_on_the_loss_curve(self, mode, n):
        # a run of n steps ends with the loss that a run of n + 1 steps traces
        # before its last step, bit for bit: both come from one evaluation path
        data = generate_crossroad(CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=24, seed=2000))
        decoder = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1), within_mode_scale=0.3)
        cfg, train = {
            "dsf": (TrainConfig(mode="dsf", k=10, lr=0.01, kernel=KernelConfig(sim_scale=8.0)), train_dsf),
            "dlow": (TrainConfig(mode="dlow", k=10, lr=0.01, noise_draws_per_iter=4, energy=EnergyConfig(sigma_d=10.0)),
                     train_dlow),
        }[mode]
        _, short = train(data, decoder, dataclasses.replace(cfg, iters=n))
        _, long = train(data, decoder, dataclasses.replace(cfg, iters=n + 1))
        assert short.final_loss == long.trace[n]["total"]
        assert short.final_terms == long.trace[n]["terms"]

    def test_singular_featurized_flow_names_the_iteration(self):
        # invertible base flows; the example with feature 1 folds flow 0 to I - I
        rng = np.random.default_rng(21)
        examples = [
            Example(
                context=Context(past=np.zeros((1, 2)), features=np.array([f])),
                future=rng.normal(size=(2, 2)),
                id=i,
            )
            for i, f in enumerate((0.0, 1.0))
        ]
        cfg = TrainConfig(mode="dlow", k=2, iters=3, noise_draws_per_iter=2, context_featurization=True)
        obj = _DlowObjective(linear_decoder(rng, n_z=2), examples, cfg, rng.standard_normal((2, 2)))
        block = np.zeros(2 * (4 + 2))  # Ma (K, 2, 2, 1), then Mb (K, 2, 1)
        block[:4] = -np.eye(2).reshape(-1)
        params = obj.pack(AffineFlowSet.identity(2, 2), block)
        with pytest.raises(ValueError, match=r"^flow not invertible: .* at iteration 0$"):
            _run_optimizer(obj, params, cfg)


class TestTrainDsf:
    def test_single_code_closed_form_and_saturation(self):
        # K = 1: loss = -r^2 / (r^2 + 1); optimizer pulls the code inside the
        # quality sphere where the loss saturates at -omega^2/(omega^2+1)
        rng = np.random.default_rng(4)
        dec = linear_decoder(rng, n_z=2)
        kcfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        radius = quality_radius(2, kcfg.rho)
        start = np.array([[1.3 * radius, 0.0]])  # outside the sphere, gradient alive
        cfg = TrainConfig(mode="dsf", k=1, iters=400, lr=0.05, seed=0, kernel=kcfg)
        codes, report = train_dsf(Context(past=np.zeros((1, 2))), dec, cfg, init_codes=start)
        # initial loss matches the closed form at the starting code
        from divtraj import build_quality

        r0 = build_quality(start, kcfg)[0]
        assert report.trace[0]["total"] == pytest.approx(-r0**2 / (r0**2 + 1.0), rel=1e-12)
        assert np.linalg.norm(codes.codes[0]) <= radius + 1e-6
        assert report.final_loss == pytest.approx(-0.5, abs=1e-9)  # omega = 1

    def test_imbalanced_crossroad_mode_coverage_spot_check(self):
        # 10-seed spot check; the 100-seeded-run version runs with acceptance
        dec = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1), within_mode_scale=0.3)
        kcfg = KernelConfig(sim_scale=8.0, base_quality=1.0, rho=0.9)
        ctx = Context(past=np.array([[-1.0, 0.0], [0.0, 0.0]]))
        covered = 0
        for seed in range(10):
            cfg = TrainConfig(mode="dsf", k=10, iters=100, lr=0.01, seed=seed, kernel=kcfg)
            codes, _ = train_dsf(ctx, dec, cfg)
            covered += len(set(dec.sector_of(codes.codes).tolist())) == 3
        assert covered == 10

    def test_bit_identical_reports_same_seed(self):
        rng = np.random.default_rng(5)
        dec = linear_decoder(rng, n_z=2)
        kcfg = KernelConfig(sim_scale=1.0, base_quality=1.0, rho=0.9)
        cfg = TrainConfig(mode="dsf", k=3, iters=20, lr=0.01, seed=9, kernel=kcfg)
        ctx = Context(past=np.zeros((1, 2)))
        codes1, rep1 = train_dsf(ctx, dec, cfg)
        codes2, rep2 = train_dsf(ctx, dec, cfg)
        assert np.array_equal(codes1.codes, codes2.codes)
        assert rep1.trace == rep2.trace
        assert rep1.final_loss == rep2.final_loss

    def test_misshaped_init_codes_rejected(self):
        rng = np.random.default_rng(15)
        cfg = TrainConfig(mode="dsf", k=3, iters=2, kernel=KernelConfig())
        with pytest.raises(ValueError, match=r"\(3, 2\), got \(2, 3\)"):
            train_dsf(
                Context(past=np.zeros((1, 2))), linear_decoder(rng, n_z=2), cfg,
                init_codes=np.zeros((2, 3)),
            )

    def test_wrong_mode_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            train_dsf(Context(past=np.zeros((1, 2))), linear_decoder(rng), TrainConfig(mode="dlow"))

    def test_data_shape_checked_for_every_data_form(self):
        # a (5, 2) future against a (3, 2) decoder, as train_dlow refuses it
        rng = np.random.default_rng(20)
        dec = linear_decoder(rng, n_z=2, t=3)
        cfg = TrainConfig(mode="dsf", k=2, iters=2, kernel=KernelConfig())
        ex = Example(context=Context(past=np.zeros((1, 2))), future=np.zeros((5, 2)), id=0)
        ok = Example(context=Context(past=np.zeros((1, 2))), future=np.zeros((3, 2)), id=1)
        for data in (Dataset(examples=(ex,)), [ex], ex, [ex.context, ex], [ok, ex]):
            with pytest.raises(ValueError, match=r"\(3, 2\) does not match data \(5, 2\)"):
                train_dsf(data, dec, cfg)


class TestTrainDlow:
    @pytest.mark.parametrize("name", ["dlow shared", "dlow featurized"])
    def test_one_factorization_per_evaluation(self, name, monkeypatch):
        # the singular-flow check reads the log-determinant the KL takes, so
        # training never calls np.linalg.det and trains exactly as before
        runs, outcome = TestOneDecoderPass.runs, TestOneDecoderPass.outcome
        expected = outcome(runs()[name]())

        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        assert outcome(runs()[name]()) == expected

    def test_pure_kl_objective_reaches_standard_normal(self):
        # lambda_d = lambda_r = 0: the unique minimum is A A^T = I, b = 0
        rng = np.random.default_rng(7)
        dec = linear_decoder(rng, n_z=3)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        cfg = TrainConfig(
            mode="dlow", k=3, iters=600, lr=0.02, seed=1, noise_draws_per_iter=2,
            energy=EnergyConfig(sigma_d=5.0, lambda_d=0.0, lambda_r=0.0, beta=1.0),
        )
        flows, report = train_dlow([example], dec, cfg)
        for k in range(3):
            gram = flows.A[k] @ flows.A[k].T
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-3)
        np.testing.assert_allclose(flows.b, 0.0, atol=1e-3)
        assert report.final_loss < report.initial_loss

    def test_beta_tradeoff_direction_small(self):
        # two-point beta sweep: bigger beta -> lower final diversity (APD)
        # and lower residual KL
        data = generate_crossroad(
            CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=12, seed=21)
        )
        dec = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1), within_mode_scale=0.3)
        apds, kls = [], []
        for beta in (1.0, 100.0):
            cfg = TrainConfig(
                mode="dlow", k=6, iters=100, lr=0.01, seed=2, noise_draws_per_iter=4,
                energy=EnergyConfig(sigma_d=10.0, lambda_d=25.0, lambda_r=2.0, beta=beta),
            )
            flows, report = train_dlow(data, dec, cfg)
            kls.append(float(np.mean(kl_to_standard_normal(flows))))
            from divtraj import SampleSet, apd

            vals = []
            for j in range(10):
                eps = np.random.default_rng([2, j]).standard_normal(2)
                vals.append(
                    apd(SampleSet(samples=dec.decode_batch(apply_flows(flows, eps), None)))
                )
            apds.append(float(np.mean(vals)))
            # E_d (unweighted) is recoverable from the diversity term
        assert apds[1] < apds[0]
        assert kls[1] < kls[0]

    def test_zero_lr_keeps_identity_init(self):
        rng = np.random.default_rng(8)
        dec = linear_decoder(rng, n_z=2)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        init = AffineFlowSet.identity(3, 2)
        cfg = TrainConfig(mode="dlow", k=3, iters=1, lr=0.0, seed=0, noise_draws_per_iter=2)
        flows, _ = train_dlow([example], dec, cfg, init_flows=init)
        np.testing.assert_array_equal(flows.A, init.A)
        np.testing.assert_array_equal(flows.b, init.b)

    def test_misshaped_init_flows_rejected(self):
        # a K=3 flow set for K=2: refused on both gradient paths, never read
        # into the wrong parameter blocks
        rng = np.random.default_rng(16)
        cfg = TrainConfig(mode="dlow", k=2, iters=2, noise_draws_per_iter=2)
        for dec in (linear_decoder(rng, n_z=2, t=3), CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))):
            example = Example(
                context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(3, 2)), id=0
            )
            with pytest.raises(ValueError, match=r"\(2, 2, 2\).*got \(3, 2, 2\)"):
                train_dlow([example], dec, cfg, init_flows=AffineFlowSet.identity(3, 2))

    def test_k_below_two_rejected_up_front(self):
        # the diversity energy divides by K(K-1): refused before any iteration
        rng = np.random.default_rng(19)
        cfg = TrainConfig(mode="dlow", k=1, iters=2, noise_draws_per_iter=2)
        for dec in (linear_decoder(rng, n_z=2, t=3), CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))):
            example = Example(
                context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(3, 2)), id=0
            )
            with pytest.raises(ValueError, match="K >= 2.*got K=1"):
                train_dlow([example], dec, cfg)

    def test_featurization_without_features_rejected(self):
        # featureless contexts would fold every example to the shared flows,
        # trained once per example
        data = generate_crossroad(CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=4, seed=3))
        cfg = TrainConfig(mode="dlow", k=2, iters=2, noise_draws_per_iter=2, context_featurization=True)
        with pytest.raises(ValueError, match="^context_featurization needs context features"):
            train_dlow(data, CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1)), cfg)

    def test_nonfinite_term_fails_fast_on_both_gradient_paths(self):
        rng = np.random.default_rng(17)
        cfg = TrainConfig(mode="dlow", k=2, iters=5, noise_draws_per_iter=2)
        init = AffineFlowSet(A=np.tile(np.eye(2), (2, 1, 1)), b=np.full((2, 2), 1e200))
        for dec in (linear_decoder(rng, n_z=2, t=3), CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))):
            example = Example(
                context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(3, 2)), id=0
            )
            with pytest.raises(ValueError, match="non-finite kl term .* at iteration 0"):
                train_dlow([example], dec, cfg, init_flows=init)

    def test_featurized_breakdown_matches_per_example_flows(self):
        rng = np.random.default_rng(18)
        n_z, k, f_dim = 2, 3, 2
        dec = linear_decoder(rng, n_z=n_z)
        examples = [
            Example(
                context=Context(past=np.zeros((1, 2)), features=rng.normal(size=f_dim)),
                future=rng.normal(size=(2, 2)),
                id=i,
            )
            for i in range(3)
        ]
        cfg = TrainConfig(
            mode="dlow", k=k, noise_draws_per_iter=4,
            energy=EnergyConfig(sigma_d=5.0, lambda_d=2.0, lambda_r=1.0, beta=0.5),
        )
        cfg_feat = dataclasses.replace(cfg, context_featurization=True)
        eps = rng.standard_normal((4, n_z))
        flows = AffineFlowSet(
            A=np.eye(n_z) + rng.normal(scale=0.2, size=(k, n_z, n_z)),
            b=rng.normal(size=(k, n_z)),
        )
        plain = _DlowObjective(dec, examples, cfg, eps)
        feat = _DlowObjective(dec, examples, cfg_feat, eps)

        def assert_terms_equal(got, want):
            assert got["terms"].keys() == want["terms"].keys()
            for name, value in want["terms"].items():
                assert got["terms"][name] == pytest.approx(value, rel=1e-12), name

        # an all-zero featurization block gives every example the plain flows
        assert_terms_equal(feat.evaluate(feat.pack(flows))[0], plain.evaluate(plain.pack(flows))[0])
        # a nonzero block: the mean over examples of each example's own loss
        block = rng.normal(scale=0.1, size=k * (n_z * n_z + n_z) * f_dim)
        ma = block[: k * n_z * n_z * f_dim].reshape(k, n_z, n_z, f_dim)
        mb = block[k * n_z * n_z * f_dim :].reshape(k, n_z, f_dim)
        per_example = []
        for ex in examples:
            f = ex.context.features
            own = AffineFlowSet(A=flows.A + ma @ f, b=flows.b + mb @ f)
            single = _DlowObjective(dec, [ex], cfg, eps)
            per_example.append(single.evaluate(single.pack(own))[0])
        mean = {
            "terms": {
                name: float(np.mean([bd["terms"][name] for bd in per_example]))
                for name in per_example[0]["terms"]
            }
        }
        assert_terms_equal(feat.evaluate(feat.pack(flows, block))[0], mean)

    def test_bit_identical_reports_same_seed(self):
        rng = np.random.default_rng(9)
        dec = linear_decoder(rng, n_z=2)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        cfg = TrainConfig(mode="dlow", k=2, iters=15, lr=0.01, seed=4, noise_draws_per_iter=3)
        f1, r1 = train_dlow([example], dec, cfg)
        f2, r2 = train_dlow([example], dec, cfg)
        assert np.array_equal(f1.A, f2.A) and np.array_equal(f1.b, f2.b)
        assert r1.trace == r2.trace

    def test_parameter_count(self):
        rng = np.random.default_rng(10)
        n_z, k = 3, 4
        dec = linear_decoder(rng, n_z=n_z)
        example = Example(
            context=Context(past=np.zeros((1, 2)), features=np.ones(2)),
            future=rng.normal(size=(2, 2)),
            id=0,
        )
        cfg = TrainConfig(mode="dlow", k=k, noise_draws_per_iter=2)
        obj = _DlowObjective(dec, [example], cfg, np.zeros((2, n_z)))
        assert obj.n_params() == k * (n_z**2 + n_z)
        cfg_feat = dataclasses.replace(cfg, context_featurization=True)
        obj_feat = _DlowObjective(dec, [example], cfg_feat, np.zeros((2, n_z)))
        assert obj_feat.n_params() == k * (n_z**2 + n_z) * (1 + 2)

    def test_fix_first_identity_flag(self):
        rng = np.random.default_rng(11)
        dec = linear_decoder(rng, n_z=2)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        cfg = TrainConfig(
            mode="dlow", k=3, iters=40, lr=0.05, seed=3, noise_draws_per_iter=3,
            fix_first_identity=True,
        )
        flows, _ = train_dlow([example], dec, cfg)
        np.testing.assert_array_equal(flows.A[0], np.eye(2))
        np.testing.assert_array_equal(flows.b[0], np.zeros(2))
        assert not np.allclose(flows.A[1], np.eye(2))

    def test_featurized_flows_train_and_respond_to_context(self):
        rng = np.random.default_rng(12)
        dec = linear_decoder(rng, n_z=2)
        examples = [
            Example(
                context=Context(past=np.zeros((1, 2)), features=np.array([float(i)])),
                future=rng.normal(size=(2, 2)),
                id=i,
            )
            for i in range(2)
        ]
        cfg = TrainConfig(
            mode="dlow", k=2, iters=25, lr=0.05, seed=5, noise_draws_per_iter=2,
            context_featurization=True,
            energy=EnergyConfig(sigma_d=5.0, lambda_d=2.0, lambda_r=1.0, beta=0.5),
        )
        flows, report = train_dlow(examples, dec, cfg)
        assert "featurization" in report.extras
        assert report.final_loss < report.initial_loss

    def test_best_so_far_loss_monotone(self):
        rng = np.random.default_rng(13)
        dec = linear_decoder(rng, n_z=2)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        cfg = TrainConfig(mode="dlow", k=3, iters=80, lr=0.02, seed=6, noise_draws_per_iter=3)
        _, report = train_dlow([example], dec, cfg)
        totals = [entry["total"] for entry in report.trace] + [report.final_loss]
        best = np.minimum.accumulate(totals)
        assert np.all(np.diff(best) <= 1e-12)
        assert report.final_loss < report.initial_loss

    def test_trace_length_and_breakdown_sum(self):
        rng = np.random.default_rng(14)
        dec = linear_decoder(rng, n_z=2)
        example = Example(
            context=Context(past=np.zeros((1, 2))), future=rng.normal(size=(2, 2)), id=0
        )
        cfg = TrainConfig(mode="dlow", k=2, iters=12, lr=0.01, seed=7, noise_draws_per_iter=2)
        _, report = train_dlow([example], dec, cfg)
        assert len(report.trace) == 12
        for entry in report.trace:
            assert entry["total"] == pytest.approx(sum(entry["terms"].values()), rel=1e-12)


class TestOneDecoderPass:
    """The trainers take each decode and its Jacobian from one ``linearize``
    call, which must train exactly as separate ``decode_batch`` and
    ``jacobian_batch`` calls do."""

    @staticmethod
    def runs():
        rng = np.random.default_rng(30)
        crossroad = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))
        data = generate_crossroad(CrossroadConfig(mode_probs=(0.8, 0.1, 0.1), n_examples=6, seed=3))
        featured = [  # featurized flows need context features, which gen-data does not write
            dataclasses.replace(ex, context=Context(past=ex.context.past, features=features))
            for ex, features in zip(data, np.random.default_rng(31).normal(size=(len(data), 2)))
        ]
        ctx = Context(past=np.zeros((1, 2)))
        dsf = TrainConfig(mode="dsf", k=5, iters=15, lr=0.02, seed=1, kernel=KernelConfig(sim_scale=2.0))
        dlow = TrainConfig(mode="dlow", k=4, iters=10, lr=0.02, seed=2, noise_draws_per_iter=3,
                           energy=EnergyConfig(sigma_d=10.0))
        return {
            "dsf crossroad": lambda: train_dsf(data, crossroad, dsf),
            "dsf linear": lambda: train_dsf(ctx, linear_decoder(rng, n_z=2), dsf),
            "dsf tabulated": lambda: train_dsf(ctx, tabulated_decoder(rng), dsf),
            "dlow shared": lambda: train_dlow(data, crossroad, dlow),
            "dlow featurized": lambda: train_dlow(
                featured, crossroad, dataclasses.replace(dlow, context_featurization=True)
            ),
        }

    @staticmethod
    def outcome(result):
        params, report = result
        arrays = (params.codes,) if isinstance(params, DsfCodes) else (params.A, params.b)
        return [a.tolist() for a in arrays], report_to_dict(report), report.extras

    @pytest.mark.parametrize(
        "name", ["dsf crossroad", "dsf linear", "dsf tabulated", "dlow shared", "dlow featurized"]
    )
    def test_linearize_trains_as_decode_then_jacobian(self, name, monkeypatch):
        fused = self.outcome(self.runs()[name]())
        for cls in (CrossroadDecoder, LinearDecoder, TabulatedDecoder):
            monkeypatch.setattr(
                cls, "linearize", lambda self, Z: (self.decode_batch(Z), self.jacobian_batch(Z))
            )
        assert self.outcome(self.runs()[name]()) == fused

    def test_crossroad_dsf_finds_sectors_once_per_evaluation(self, monkeypatch):
        # N iterations evaluate the loss with its gradient N times, and the final loss once more
        calls = []
        polar = CrossroadDecoder._polar
        monkeypatch.setattr(CrossroadDecoder, "_polar", lambda self, Z: calls.append(1) or polar(self, Z))
        cfg = TrainConfig(mode="dsf", k=4, iters=7, lr=0.02, seed=0, kernel=KernelConfig(sim_scale=2.0))
        train_dsf(Context(past=np.zeros((1, 2))), CrossroadDecoder(), cfg)
        assert len(calls) == 7 + 1
