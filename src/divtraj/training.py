"""Optimizers for the two trajectory samplers.

``train_dsf`` fits K directly parameterized latent codes against the
negated expected cardinality of the DPP kernel over the decoded set.
``train_dlow`` fits K affine latent flows against the weighted energy
objective (KL + diversity + reconstruction, optionally a similar-slice
term), with the expectation over the shared noise approximated by a fixed
set of per-run common random draws.

Both trainers require decoders with the additive-context property
(``decode_batch(z, ctx) = decode_batch(z, None) + context_offset(ctx)``):
pairwise energies and kernel similarities are then context-invariant, and
the reconstruction term folds the context offset into its target. Gradients
are exact on every path: the chain rule through each decoder's per-code
Jacobian and, for featurized flows, through the per-example fold.

The objectives hold no sampler math of their own. Each has one entry point,
``evaluate(params, grad)``, which returns the loss breakdown and, with
``grad``, the gradient (else None): it unpacks the parameters and makes one
decoder pass, ``linearize`` for the decode and its Jacobian with ``grad`` and
``decode_batch`` without, then chains gradients through that Jacobian. Work
that depends only on the run's shapes is done once per run. The kernel, its
spectrum, E|Y| and E|Y|'s gradient come from the batched private functions in ``dpp``;
flow application, the invertibility check, the flow KL and its gradient from
``flows``; the three energies, their J_d/J_s columns and their gradient from
``energy``. The public functions of those modules wrap the same code. The
optimizer names the iteration in any error an evaluation raises.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dpp, energy
from .dpp import KernelConfig
from .energy import EnergyConfig
from .flows import AffineFlowSet, DsfCodes, _apply_flows, _fold_features, _kl
from .trajectory import Context, Dataset, Example, _check_fields

__all__ = [
    "TrainConfig",
    "TrainReport",
    "numeric_gradient",
    "AdamState",
    "adam_step",
    "train_dsf",
    "train_dlow",
]

# Adam's decay rates and denominator guard (Kingma & Ba, ICLR 2015), fixed
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "dsf"  # "dsf" | "dlow"
    k: int = 10
    iters: int = 300
    lr: float = 5e-3
    seed: int = 0
    noise_draws_per_iter: int = 8
    kernel: KernelConfig = field(default_factory=KernelConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    fix_first_identity: bool = False
    context_featurization: bool = False

    def __post_init__(self):
        _check_fields(
            self, k="count", iters="count", seed="integer", noise_draws_per_iter="count",
            lr="nonnegative",  # zero is allowed as an explicit no-op probe
            fix_first_identity="flag", context_featurization="flag",
        )
        if self.mode not in ("dsf", "dlow"):
            raise ValueError(f"mode must be 'dsf' or 'dlow', got {self.mode!r}")


@dataclass(frozen=True)
class TrainReport:
    """Per-iteration loss trace (evaluated before each update) plus finals."""

    trace: tuple  # of {"iter": int, "total": float, "terms": dict}
    final_loss: float
    final_terms: dict
    wall_time: float
    seed: int
    mode: str
    extras: dict = field(default_factory=dict)

    @property
    def initial_loss(self) -> float:
        return self.trace[0]["total"]


def numeric_gradient(f, at, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h = step * max(1, |x|)."""
    x = np.asarray(at, dtype=float).copy()
    grad = np.empty_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        orig = x[i]
        x[i] = orig + h
        f_plus = f(x)
        x[i] = orig - h
        f_minus = f(x)
        x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"objective is non-finite near coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def init(n: int) -> "AdamState":
        return AdamState(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(params, grad, state: AdamState, lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update at the fixed constants; pure and deterministic."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape:
        raise ValueError("params/grad shape mismatch")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, replace(state, m=m, v=v, t=t)


class _DsfObjective:
    """Negated expected cardinality of the kernel over the decoded code set.

    Context offsets cancel in pairwise similarities and qualities are
    latent-only, so the loss is context-invariant for additive decoders.
    """

    def __init__(self, decoder, kcfg: KernelConfig, k: int):
        self.decoder = decoder
        self.kcfg = kcfg
        self.k = k

    def evaluate(self, params: np.ndarray, grad: bool = False):
        codes = params.reshape(self.k, self.decoder.n_z)
        dec = self.decoder
        items, jac = dec.linearize(codes) if grad else (dec.decode_batch(codes), None)
        items = items.reshape(self.k, -1)
        s, r, _, lam, u = dpp._kernel(items, codes, self.kcfg, vectors=grad)
        total = float(-dpp._cardinality(lam))
        bd = {"total": total, "terms": {"neg_expected_cardinality": total}}
        if not grad:
            return bd, None
        g_items, g_codes = dpp._cardinality_grads(items, codes, s, r, lam, u, self.kcfg)
        g_codes += np.einsum("kf,kfn->kn", g_items, jac)
        return bd, -g_codes.reshape(-1)


class _DlowObjective:
    """Noise-averaged energy objective over flow parameters.

    Parameter vector layout: trainable A blocks, then trainable b blocks
    (flow 0 excluded when it is pinned to the identity), then the optional
    per-context featurization blocks. With featurization enabled the flows
    become A_k + fold(Ma_k @ f), b_k + Mb_k @ f per example, stacked on a
    leading example axis.
    """

    def __init__(self, decoder, examples, cfg: TrainConfig, eps_draws: np.ndarray):
        self.decoder = decoder
        self.ecfg = cfg.energy
        self.eps = eps_draws
        self.k = cfg.k
        self.n_z = decoder.n_z
        self.fix_first = cfg.fix_first_identity
        self.featurized = cfg.context_featurization
        self.ecfg.validate_split(decoder.state_dim)
        self.targets = np.stack(  # (M, 1, F): one target per example, for every draw
            [ex.future.reshape(1, -1) - decoder.context_offset(ex.context) for ex in examples]
        )
        self.features = np.stack([ex.context.features for ex in examples])
        self._identities = np.tile(np.eye(self.n_z), (self.k, 1, 1))  # copied by each unpack

    # --- parameter packing -------------------------------------------------
    @property
    def k0(self) -> int:
        return 1 if self.fix_first else 0

    def n_params(self) -> int:
        base = (self.k - self.k0) * (self.n_z**2 + self.n_z)
        if self.featurized:
            f_dim = self.features.shape[1]
            base += (self.k - self.k0) * (self.n_z**2 + self.n_z) * f_dim
        return base

    def pack(self, flows: AffineFlowSet, feat_block: np.ndarray | None = None) -> np.ndarray:
        parts = [flows.A[self.k0 :].reshape(-1), flows.b[self.k0 :].reshape(-1)]
        if self.featurized:
            n_feat = self.n_params() - parts[0].size - parts[1].size
            parts.append(np.zeros(n_feat) if feat_block is None else feat_block.reshape(-1))
        return np.concatenate(parts)

    def unpack(self, params: np.ndarray):
        k_t, n_z = self.k - self.k0, self.n_z
        n_a, n_b = k_t * n_z * n_z, k_t * n_z
        a = self._identities.copy()
        b = np.zeros((self.k, n_z))
        a[self.k0 :] = params[:n_a].reshape(k_t, n_z, n_z)
        b[self.k0 :] = params[n_a : n_a + n_b].reshape(k_t, n_z)
        feat = params[n_a + n_b :] if self.featurized else None
        return a, b, feat

    def _flows(self, params: np.ndarray):
        """Flows (M', K, n_z, n_z) and shifts (M', K, n_z): one set per
        example when featurized (M' = M), else one shared set (M' = 1)."""
        a, b, feat = self.unpack(params)
        if not self.featurized:
            return a[None], b[None]
        return _fold_features(a, b, feat, self.features, self.k0)

    # --- loss ----------------------------------------------------------------
    def evaluate(self, params: np.ndarray, grad: bool = False):
        a, b = self._flows(params)
        cfg = self.ecfg
        kl, g_kl = _kl(a, b, grad)  # rejects a singular flow
        z = _apply_flows(a[:, None], b[:, None], self.eps[None])  # (M', E, K, n_z)
        codes, dec = z.reshape(-1, self.n_z), self.decoder
        v, jac = dec.linearize(codes) if grad else (dec.decode_batch(codes), None)
        v = v.reshape(*z.shape[:3], -1)
        (e_d, e_r, e_s), g_v = energy._energies(v, self.targets, cfg, self.decoder.state_dim, grad)
        terms = energy._weighted_terms(cfg, float(kl.sum()) / len(kl), e_d, e_r, e_s)
        bd = {"total": float(sum(terms.values())), "terms": terms}
        if not grad:
            return bd, None
        g_z = np.einsum("mekf,mekfn->mekn", g_v, jac.reshape(*v.shape, self.n_z))
        # per flow set (M', K, ...): summed for the base flows, and taken as
        # outer products with each example's features for the feature blocks
        g_a = (cfg.beta / len(kl)) * g_kl[0] + np.einsum("mekn,ej->mknj", g_z, self.eps)
        g_b = (cfg.beta / len(kl)) * g_kl[1] + g_z.sum(axis=1)
        g_a, g_b = g_a[:, self.k0 :], g_b[:, self.k0 :]
        parts = [g_a.sum(axis=0), g_b.sum(axis=0)]
        if self.featurized:
            parts += [np.einsum("mk...,mf->k...f", g, self.features) for g in (g_a, g_b)]
        return bd, np.concatenate([part.reshape(-1) for part in parts])


def _as_examples(data) -> list[Example]:
    """The examples of a Dataset, of one Example or Context, or of a sequence
    of them; a context has no future and gives none."""
    if isinstance(data, Dataset):
        data = data.examples
    elif isinstance(data, (Example, Context)):
        data = [data]
    return [ex for ex in data if not isinstance(ex, Context)]


def _check_decoder_shape(decoder, examples) -> None:
    for ex in examples:
        if ex.future.shape != (decoder.t_steps, decoder.state_dim):
            raise ValueError(
                f"decoder output shape ({decoder.t_steps}, {decoder.state_dim}) "
                f"does not match data {ex.future.shape}"
            )


def _evaluate(objective, params: np.ndarray, i: int, grad: bool = False):
    """``objective.evaluate`` at iteration ``i``: a rejected input, a
    non-finite term or a non-finite gradient raises a ValueError that names
    the iteration."""
    try:
        bd, g = objective.evaluate(params, grad)
    except ValueError as exc:
        raise ValueError(f"{exc} at iteration {i}") from exc
    for name, value in [*bd["terms"].items(), ("total", bd["total"])]:
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} term ({value}) at iteration {i}")
    if grad and not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite gradient at iteration {i}")
    return bd, g


def _run_optimizer(objective, params: np.ndarray, cfg: TrainConfig):
    state = AdamState.init(params.size)
    trace = []
    start = time.perf_counter()
    for i in range(cfg.iters):
        bd, grad = _evaluate(objective, params, i, grad=True)
        trace.append({"iter": i, "total": bd["total"], "terms": bd["terms"]})
        params, state = adam_step(params, grad, state, cfg.lr)
    final, _ = _evaluate(objective, params, cfg.iters)
    wall = time.perf_counter() - start
    report = TrainReport(
        trace=tuple(trace),
        final_loss=final["total"],
        final_terms=final["terms"],
        wall_time=wall,
        seed=cfg.seed,
        mode=cfg.mode,
    )
    return params, report


def train_dsf(data, decoder, cfg: TrainConfig, init_codes=None) -> tuple[DsfCodes, TrainReport]:
    """Optimize K direct latent codes against the DPP diversity loss.

    ``data`` may be a Dataset, a single Context/Example, or a sequence of
    them; for additive decoders the loss is context-invariant, so the data
    argument only pins expected shapes.
    """
    if cfg.mode != "dsf":
        raise ValueError("config mode must be 'dsf'")
    _check_decoder_shape(decoder, _as_examples(data))
    objective = _DsfObjective(decoder, cfg.kernel, cfg.k)
    rng = np.random.default_rng(cfg.seed)
    if init_codes is None:
        codes0 = rng.normal(0.0, 0.1, size=(cfg.k, decoder.n_z))
    else:
        codes0 = np.asarray(init_codes, dtype=float)
        if codes0.shape != (cfg.k, decoder.n_z):
            raise ValueError(
                f"init_codes must have shape {(cfg.k, decoder.n_z)}, got {codes0.shape}"
            )
    params, report = _run_optimizer(objective, codes0.reshape(-1), cfg)
    return DsfCodes(codes=params.reshape(cfg.k, decoder.n_z)), report


def train_dlow(data, decoder, cfg: TrainConfig, init_flows=None) -> tuple[AffineFlowSet, TrainReport]:
    """Optimize K affine flows against the noise-averaged energy objective.

    The per-run noise draws are fixed up front (common random numbers across
    iterations), so runs are fully deterministic given (seed, config, data).
    Returns the flow set and the training report; featurization blocks, when
    enabled, are returned via ``report.extras["featurization"]``.
    """
    if cfg.mode != "dlow":
        raise ValueError("config mode must be 'dlow'")
    if cfg.k < 2:
        raise ValueError(f"DLow training requires K >= 2 for its diversity energy, got K={cfg.k}")
    examples = _as_examples(data)
    if not examples:
        raise ValueError("training data must contain at least one example with a future")
    _check_decoder_shape(decoder, examples)
    rng = np.random.default_rng(cfg.seed)
    a0 = np.tile(np.eye(decoder.n_z), (cfg.k, 1, 1)) + rng.normal(
        0.0, 0.01, size=(cfg.k, decoder.n_z, decoder.n_z)
    )
    b0 = rng.normal(0.0, 0.1, size=(cfg.k, decoder.n_z))
    eps_draws = rng.standard_normal((cfg.noise_draws_per_iter, decoder.n_z))
    if cfg.fix_first_identity:
        a0[0] = np.eye(decoder.n_z)
        b0[0] = 0.0
    flows0 = AffineFlowSet(A=a0, b=b0) if init_flows is None else init_flows
    if flows0.A.shape != a0.shape:
        raise ValueError(
            f"init_flows must have A of shape {a0.shape} and b of shape {b0.shape}, "
            f"got {flows0.A.shape} and {flows0.b.shape}"
        )
    objective = _DlowObjective(decoder, examples, cfg, eps_draws)
    params, report = _run_optimizer(objective, objective.pack(flows0), cfg)
    a, b, feat = objective.unpack(params)
    flows = AffineFlowSet(A=a, b=b)
    if feat is not None:
        report.extras["featurization"] = feat.tolist()
    return flows, report
