"""Network assembly, training, and checkpointing.

Builds the 1-D convolutional ResNet out of the primitive layers, runs
forward passes that yield beta parameters per crop, wires the beta
negative log-likelihood into backprop, and serializes models to a small
self-describing binary format.

Two presets exist: "paper" is the full architecture (input 2048, seven
residual groups, channel ramp 8..20), "tiny" is a desk-scale sibling
(input 256, two groups) so gradient checks and end-to-end tests finish in
seconds. The preset is always selected explicitly.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import predict as predict_mod
from .betadist import (BetaParams, beta_log_pdf, beta_nll_grad, clip_label,
                       hard_label)
from .data import (AugmentConfig, BinaryReader, open_input,
                   sample_changepoint_batch, sample_crop_batch)
from .errors import (
    CheckpointError,
    CorruptCheckpointError,
    TensorShapeError,
    UnsupportedVersionError,
    UsageError,
)
from .nn import (
    BN_EPS,
    BN_MOMENTUM,
    AdamState,
    BatchNorm1D,
    Conv1D,
    Dense,
    GlobalMaxPool,
    MaxPool1D,
    Param,
    ReLU,
    Softplus,
    adam_step,
    DEFAULT_DTYPE,
)

CHECKPOINT_MAGIC = b"BGC1"
CHECKPOINT_VERSION = 1

# Hard labels are clipped into [LABEL_EPS, 1 - LABEL_EPS] before the beta
# log-density is evaluated at them.
LABEL_EPS = 0.01

# Crop draws per training record per epoch; the batch schedule repeats
# this many windows of coverage deterministically every epoch.
CROPS_PER_RECORD = 4


@dataclass(frozen=True)
class ArchitectureSpec:
    """Static description of one network variant.

    stem is (kernel, channels, pool); groups are (blocks, channels, kernel)
    with the first block of every group striding by 2 spatially. The
    input length is also the crop length of training and prediction; the
    head always emits one (alpha, beta) pair.
    """

    preset_name: str
    input_length: int
    stem: tuple[int, int, int]
    groups: tuple[tuple[int, int, int], ...]


PRESETS = {
    "paper": ArchitectureSpec(
        preset_name="paper",
        input_length=2048,
        stem=(5, 8, 2),
        groups=((2, 8, 3), (2, 8, 3), (2, 12, 3), (2, 12, 3),
                (3, 16, 3), (3, 16, 3), (2, 20, 3)),
    ),
    "tiny": ArchitectureSpec(
        preset_name="tiny",
        input_length=256,
        stem=(5, 4, 2),
        groups=((1, 4, 3), (1, 6, 3)),
    ),
}


def _walk(nodes, x: np.ndarray, train: bool) -> np.ndarray:
    """Forward x through nodes in order."""
    for node in nodes:
        x = node.forward(x, train)
    return x


def _walk_back(nodes, g: np.ndarray) -> np.ndarray:
    """Backward g through nodes in reverse order."""
    for node in reversed(nodes):
        g = node.backward(g)
    return g


class ResidualBlock:
    """conv-BN-ReLU-conv-BN, shortcut add, ReLU.

    When the block strides or changes the channel count, the shortcut goes
    through a kernel-1 projection convolution with the same stride.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int, *,
                 rng, dtype, name: str):
        self.name = name
        self.conv1 = Conv1D(in_ch, out_ch, kernel, stride,
                            rng=rng, dtype=dtype, name=f"{name}.conv1")
        self.bn1 = BatchNorm1D(out_ch, dtype=dtype, name=f"{name}.bn1")
        self.relu_inner = ReLU(name=f"{name}.relu1")
        self.conv2 = Conv1D(out_ch, out_ch, kernel, 1,
                            rng=rng, dtype=dtype, name=f"{name}.conv2")
        self.bn2 = BatchNorm1D(out_ch, dtype=dtype, name=f"{name}.bn2")
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv1D(in_ch, out_ch, 1, stride,
                               rng=rng, dtype=dtype, name=f"{name}.proj")
        else:
            self.proj = None
        self.main = [self.conv1, self.bn1, self.relu_inner, self.conv2, self.bn2]
        self.shortcut = [self.proj] if self.proj is not None else []
        self.join = ReLU(name=f"{name}.relu2")

    def sublayers(self):
        """The layers holding parameters: conv1, bn1, conv2, bn2[, proj]."""
        return [layer for layer in self.main + self.shortcut if layer.params()]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        # The main path's output is a fresh array, so the join adds into it;
        # x itself (the identity shortcut) is never written.
        z = _walk(self.main, x, train)
        z += _walk(self.shortcut, x, train)
        return self.join.forward(z, train)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        gz = self.join.backward(grad_out)
        g = _walk_back(self.main, gz)
        g += _walk_back(self.shortcut, gz)
        return g


class Model:
    """The assembled network: stem, residual groups, beta-parameter head."""

    def __init__(self, spec: ArchitectureSpec, seed: int, *,
                 dtype=DEFAULT_DTYPE):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(int(seed))

        stem_kernel, stem_ch, stem_pool = spec.stem
        self.stem_conv = Conv1D(1, stem_ch, stem_kernel, 1,
                                rng=rng, dtype=dtype, name="stem.conv")
        self.stem_pool = MaxPool1D(stem_pool, name="stem.pool")
        self.stem_bn = BatchNorm1D(stem_ch, dtype=dtype, name="stem.bn")
        self.stem_relu = ReLU(name="stem.relu")

        self.groups: list[list[ResidualBlock]] = []
        in_ch = stem_ch
        for gi, (blocks, channels, kernel) in enumerate(spec.groups):
            group = []
            for bi in range(blocks):
                stride = 2 if bi == 0 else 1
                group.append(ResidualBlock(
                    in_ch, channels, kernel, stride, rng=rng, dtype=dtype,
                    name=f"g{gi}.b{bi}"))
                in_ch = channels
            self.groups.append(group)

        self.global_pool = GlobalMaxPool(name="head.gpool")
        self.head_dense = Dense(in_ch, 2, rng=rng, dtype=dtype, name="head.dense")
        self.head_softplus = Softplus(name="head.softplus")

        # The walk order; last_stage_sizes records the length after each stage.
        self.stages = [
            [self.stem_conv, self.stem_pool, self.stem_bn, self.stem_relu],
            *self.groups,
            [self.global_pool],
        ]
        self.head = [self.head_dense, self.head_softplus]

        self.adam = AdamState()
        self.last_stage_sizes: list[int] = []

    # -- structure walking -------------------------------------------------

    def _layers_with_params(self):
        for node in itertools.chain(*self.stages, self.head):
            if isinstance(node, ResidualBlock):
                yield from node.sublayers()
            elif node.params():
                yield node

    def params(self) -> list[Param]:
        return [p for layer in self._layers_with_params() for p in layer.params()]

    def named_entries(self) -> list[tuple[str, np.ndarray]]:
        """Every trainable array plus BN running statistics, in a stable
        order. The returned arrays are live references."""
        entries = []
        for layer in self._layers_with_params():
            for p in layer.params():
                entries.append((p.name, p.value))
            if isinstance(layer, BatchNorm1D):
                entries.append((f"{layer.name}.running_mean", layer.running_mean))
                entries.append((f"{layer.name}.running_var", layer.running_var))
        return entries

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run a batch of crops through the network.

        Returns an array of shape (batch, 2): one strictly positive
        (alpha, beta) pair per crop. Records per-stage spatial sizes in
        last_stage_sizes.

        An infer-mode forward keeps no layer cache (it only resets each
        layer's cache to None) and leaves the parameters and batch-norm
        statistics alone, so concurrent infer-mode forwards are safe.
        Training, a train-mode forward plus its backward, needs exclusive
        ownership of the model.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=self.dtype))
        if x.ndim != 3 or x.shape[1] != 1:
            raise ValueError(f"expected input of shape (batch, 1, length), got {x.shape}")
        if x.shape[2] != self.spec.input_length:
            raise ValueError(
                f"crop length {x.shape[2]} does not match architecture input "
                f"length {self.spec.input_length}"
            )
        sizes = []
        for stage in self.stages:
            x = _walk(stage, x, train)
            sizes.append(x.shape[2])
        self.last_stage_sizes = sizes
        return _walk(self.head, x, train)

    def backward(self, grad_out: np.ndarray) -> None:
        g = _walk_back(self.head, grad_out)
        for stage in reversed(self.stages):
            g = _walk_back(stage, g)


def build_model(preset: str, seed: int, *, dtype=DEFAULT_DTYPE) -> Model:
    """Construct a freshly initialized model from a named preset."""
    if preset not in PRESETS:
        raise UsageError(
            f"unknown architecture preset {preset!r}; available: "
            f"{sorted(PRESETS)}"
        )
    return Model(PRESETS[preset], seed, dtype=dtype)


def loss_and_grads(model: Model, crops: np.ndarray, targets, label_eps: float) -> float:
    """Mean beta negative log-likelihood over the batch, with backprop.

    Targets are clipped into [label_eps, 1-label_eps] before evaluating the
    log-density; the analytic (alpha, beta) gradient feeds the network
    backward pass. Parameter gradients accumulate into each Param.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")
    if targets.size != crops.shape[0]:
        raise ValueError(
            f"{targets.size} targets for {crops.shape[0]} crops"
        )
    out = model.forward(crops, train=True)
    batch = out.shape[0]
    nll_sum = 0.0
    grad = np.empty((batch, 2), dtype=np.float64)
    for i in range(batch):
        p = BetaParams(float(out[i, 0]), float(out[i, 1]))
        t = clip_label(float(targets[i]), label_eps)
        nll_sum += -beta_log_pdf(t, p)
        d_alpha, d_beta = beta_nll_grad(t, p)
        grad[i, 0] = d_alpha / batch
        grad[i, 1] = d_beta / batch
    model.backward(grad.astype(model.dtype))
    return nll_sum / batch


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_macro_f1: float | None = None
    val_misclassified: int | None = None
    val_total: int | None = None


@dataclass
class TrainingLog:
    epochs: list[EpochStats] = field(default_factory=list)
    config: dict = field(default_factory=dict)


def _validate_train_records(records, soft_targets: bool):
    if not records:
        raise UsageError("training split is empty")
    if soft_targets:
        usable = [r for r in records
                  if r.rhythm is not None and len(r.rhythm.changepoints) > 0]
        if not usable:
            raise UsageError(
                "soft-target training needs records with changepoint annotations"
            )
        return usable
    classes = {hard_label(r.target) for r in records}
    if classes != {0, 1}:
        raise UsageError(
            "training split must contain both classes for balanced batches"
        )
    return records


def train(model: Model, dataset, config) -> TrainingLog:
    """Run the full optimization loop.

    Each epoch draws ceil(n_train / batch_size) balanced crop batches
    (or changepoint segment batches when config.soft_targets is set),
    applies one Adam step per batch, and closes with a validation pass of
    full-signal predictions. Crops are model.spec.input_length samples
    long, and the validation pass is `predict` itself, so each epoch's
    val_macro_f1 is the F1 that `eval` reports for the same weights. The
    batch schedule is a deterministic function of config.seed and
    identical in every epoch (classic fixed-dataset epochs), so a zero
    learning rate yields a constant loss trace and two runs with the same
    seed match exactly.
    """
    if config.arch_preset != model.spec.preset_name:
        raise UsageError(
            f"config arch_preset {config.arch_preset!r} does not match the "
            f"model's preset {model.spec.preset_name!r}"
        )
    crop_len = model.spec.input_length
    train_records = _validate_train_records(dataset.train_records(),
                                            config.soft_targets)
    # One epoch's worth of crops bounds the batch, checked before any
    # batch is allocated.
    if config.batch_size > CROPS_PER_RECORD * len(train_records):
        raise UsageError(
            f"batch_size {config.batch_size} exceeds {CROPS_PER_RECORD} crops "
            f"per training record ({len(train_records)} records)")
    val_records = dataset.val_records()

    model.adam.learning_rate = config.learning_rate
    augment = AugmentConfig() if config.augment else None
    # Each record contributes ~CROPS_PER_RECORD windows per epoch; one
    # window per record is too sparse for stable fits on small datasets.
    steps_per_epoch = max(1, math.ceil(
        CROPS_PER_RECORD * len(train_records) / config.batch_size))

    log = TrainingLog(config=asdict(config))
    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 1])
        loss_sum = 0.0
        for _ in range(steps_per_epoch):
            if config.soft_targets:
                batch = sample_changepoint_batch(
                    train_records, config.batch_size, crop_len, rng)
            else:
                batch = sample_crop_batch(
                    train_records, config.batch_size, crop_len, augment, rng)
            loss = loss_and_grads(model, batch.crops, batch.targets,
                                  LABEL_EPS)
            adam_step(model.params(), model.adam)
            loss_sum += loss
        stats = EpochStats(epoch=epoch, train_loss=loss_sum / steps_per_epoch)
        if val_records:
            preds = [predict_mod.predict(model, r, crop_len) for r in val_records]
            rep = metrics_mod.report(metrics_mod.confusion(preds))
            stats.val_macro_f1 = rep.macro_f1
            stats.val_misclassified = rep.n_misclassified
            stats.val_total = rep.n_evaluated
        log.epochs.append(stats)
    return log


# -- checkpoint serialization ----------------------------------------------


def save_checkpoint(model: Model, path, config_echo: dict | None = None) -> None:
    """Write the model to the binary checkpoint format (little-endian)."""
    meta = {
        "spec": asdict(model.spec),
        "bn_momentum": BN_MOMENTUM,
        "bn_eps": BN_EPS,
        "step_count": model.adam.step_count,
        "config": config_echo,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    entries = model.named_entries()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(entries)))
        for name, value in entries:
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_checkpoint(path) -> Model:
    """Reconstruct a model; the round trip reproduces forward passes bitwise.

    A file that cannot be opened, or whose header or tensors do not
    describe a complete, finite model, raises a CheckpointError.
    """
    with open_input(path, "checkpoint file", CheckpointError) as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpointError(
                f"not a checkpoint file (magic {magic!r})"
            )
        reader = BinaryReader(fh, CorruptCheckpointError)
        (version,) = reader.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersionError(
                f"checkpoint format version {version} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        (meta_len,) = reader.unpack("<I", "header length")
        header = reader.read(meta_len, "header")
        try:
            meta = json.loads(header.decode("utf-8"))
            # The header names a preset and must repeat its sizes, so a
            # header can only pick one of the networks of known size.
            spec = PRESETS[meta["spec"]["preset_name"]]
            for key, value in json.loads(json.dumps(asdict(spec))).items():
                if meta["spec"][key] != value:
                    raise ValueError(f"{key} {meta['spec'][key]!r} is not "
                                     f"preset {spec.preset_name!r}'s {value!r}")
            for key, value in (("bn_momentum", BN_MOMENTUM), ("bn_eps", BN_EPS)):
                if float(meta[key]) != value:
                    raise ValueError(f"{key} {meta[key]!r} is not {value}")
            model = Model(spec, seed=0)
            step_count = int(meta["step_count"])
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise CorruptCheckpointError(
                f"{path}: bad checkpoint header: {exc!r}") from exc
        targets = dict(model.named_entries())
        (n_entries,) = reader.unpack("<I", "entry count")
        seen = set()
        for _ in range(n_entries):
            (name_len,) = reader.unpack("<I", "name length")
            try:
                name = reader.read(name_len, "entry name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptCheckpointError(
                    f"unreadable entry name: {exc}") from exc
            (rank,) = reader.unpack("<I", "rank")
            dims = reader.unpack(f"<{rank}I", "dims")
            arr = reader.read_f32(math.prod(dims), f"data for {name}").reshape(dims)
            if name not in targets:
                raise CorruptCheckpointError(
                    f"checkpoint entry {name!r} does not exist in architecture "
                    f"{spec.preset_name!r}"
                )
            if not np.isfinite(arr).all():
                raise CorruptCheckpointError(
                    f"{path}: entry {name!r} holds NaN or inf")
            dest = targets[name]
            if dest.shape != arr.shape:
                raise TensorShapeError(
                    f"entry {name!r} has shape {arr.shape}, architecture "
                    f"expects {dest.shape}"
                )
            dest[...] = arr
            seen.add(name)
        missing = set(targets) - seen
        if missing:
            raise CorruptCheckpointError(
                f"checkpoint is missing entries: {sorted(missing)[:4]}..."
                if len(missing) > 4 else
                f"checkpoint is missing entries: {sorted(missing)}"
            )
    model.adam.step_count = step_count
    return model
