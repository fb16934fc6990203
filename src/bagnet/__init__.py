"""Receptive-field-limited convolutional classifiers whose image-level
decision is a linear aggregate of local patch evidence, plus the
analysis suite that exploits that structure."""

__version__ = "0.1.0"

from .autodiff import (
    BatchNormState,
    DimensionError,
    MissingGradientError,
    NumericalError,
    Parameter,
    Tensor,
    batch_norm,
    conv2d,
    linear,
    relu,
    sgd_momentum_step,
    softmax,
    softmax_cross_entropy,
    spatial_mean,
)
from .data import (
    AugmentSpec,
    DataFormatError,
    Dataset,
    batch_iterator,
    channel_stats,
    load_dataset,
    save_dataset,
    synth_texture_dataset,
)
from .model import (
    BagNetConfig,
    BlockSpec,
    ConfigError,
    EvidenceMap,
    ModelState,
    aggregate_then_classify,
    bagnet3_33,
    bagnet5_32,
    bagnet9_32,
    bagnet17_64,
    build_model,
    certify_receptive_field,
    forward_evidence,
    image_logits,
    paper_scale,
    patch_oracle_evidence,
)
from .train import (
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    lr_at,
    model_from_checkpoint,
    save_checkpoint,
    train,
)
from .interpret import (
    MaskSpec,
    PreconditionError,
    apply_mask,
    integrated_gradients,
    interaction_experiment,
    masking_sensitivity,
    saliency,
    scramble_test,
    threshold_sweep,
    top_patches,
)
