"""Diversity-aware sampling from generative trajectory models.

Builds determinantal-point-process kernels over candidate trajectory sets,
optimizes learnable latent samplers (direct codes or affine flows) against
diversity objectives, and evaluates sample sets with the standard
diversity/accuracy metric suite on synthetic multi-modal trajectory data.
"""
from .decoders import (
    CrossroadDecoder,
    LinearDecoder,
    TabulatedDecoder,
    decoder_from_config,
    route_templates,
)
from .dpp import (
    DppKernel,
    GroundSet,
    KernelConfig,
    brute_force_oracle,
    build_kernel,
    build_quality,
    build_similarity,
    dpp_log_prob,
    expected_cardinality,
    greedy_map,
    quality_radius,
)
from .energy import (
    EnergyConfig,
    diversity_energy,
    dlow_loss,
    dsf_loss,
    reconstruction_energy,
    similarity_energy,
)
from .flows import (
    AffineFlowSet,
    DsfCodes,
    apply_flows,
    invert_flow,
    kl_to_standard_normal,
    sample_noise,
)
from .synth import CrossroadConfig, generate_crossroad
from .trajectory import (
    Context,
    Dataset,
    Example,
    MetricsReport,
    SampleSet,
    ade,
    apd,
    asd_fsd,
    build_multimodal_gt,
    evaluate_sample_sets,
    fde,
    mm_metrics,
    traj_distance,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    numeric_gradient,
    train_dlow,
    train_dsf,
)

__version__ = "0.1.0"
