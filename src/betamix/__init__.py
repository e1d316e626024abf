"""Beta-mixture predictive uncertainty for 1-D signal classification.

A small self-contained stack: a numpy layer engine with manual backprop,
a 1-D convolutional ResNet whose head emits beta-distribution parameters,
a beta negative log-likelihood training loop, equal-weight mixture
aggregation over signal crops, and uncertainty-based rejection.
"""

from .betadist import (
    BetaMixture,
    BetaParams,
    PredictiveSummary,
    beta_log_pdf,
    beta_moments,
    beta_nll_grad,
    clip_label,
    digamma,
    hard_label,
    ln_beta_fn,
    mixture_density_grid,
    mixture_summary,
)
from .config import RunConfig, parse_config
from .data import (
    AugmentConfig,
    CropBatch,
    Dataset,
    DatasetManifest,
    RhythmAnnotation,
    SignalRecord,
    load_dataset,
    orient_signal,
    sample_crop_batch,
    soft_target_for_segment,
    split_dataset,
    synth_generate,
    synth_generate_changepoints,
    write_dataset,
)
from .errors import (
    BetamixError,
    CheckpointError,
    CorruptCheckpointError,
    DataError,
    InternalError,
    NonFiniteOutputError,
    TensorShapeError,
    UnsupportedVersionError,
    UsageError,
)
from .metrics import ConfusionCounts, MetricsReport, confusion, coverage_curve, report
from .model import (
    ArchitectureSpec,
    Model,
    TrainingLog,
    build_model,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    train,
)
from .predict import (
    Prediction,
    decompose_crops,
    predict,
    reject_by_uncertainty,
    write_predictions,
)

__version__ = "0.1.0"
