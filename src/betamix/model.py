"""Network assembly, training, and checkpointing.

Builds the 1-D convolutional ResNet out of the primitive layers, runs
forward passes that yield beta parameters per crop, wires the beta
negative log-likelihood into backprop, and serializes models to a small
self-describing binary format.

Every conv whose output feeds a batch norm (the stem conv, through its
max pool, and each block's conv1 and conv2) has no bias: the batch norm
subtracts any per-channel constant, and its shift plays the bias's role
(He et al. 2016). Only the blocks' projection convs carry one.

The infer forward fuses each residual block's conv-BN pairs: every batch
norm inside a block is folded into the conv before it, so the pair is one
GEMM. The stem's batch norm stays a layer of its own, because the stem's
max pool sits between its conv and its batch norm, and max pooling
commutes with the batch norm's affine map only where its scale is
positive. A projection conv has no batch norm to fold, so it runs its
own infer forward. The folds are computed once per state of the
parameters, not on every call: the first infer forward builds an
InferPlan (every block's folded kernel matrices and biases) with a
bitwise snapshot of the model's flat parameter buffer and its
running-statistics buffer, and each later infer forward reuses the plan
only while both buffers still hold the snapshot's bits. Any write, by
Adam, a train pass, a checkpoint load or an in-place edit, makes the next
infer forward fold again.

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
from .betadist import beta_nll_batch, hard_label
from .data import (AugmentConfig, BinaryReader, has_changepoint_crops,
                   open_input, sample_changepoint_batch, sample_crop_batch)
from .errors import DataError, UsageError
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
    pack_params,
    pack_running_stats,
    DEFAULT_DTYPE,
)

CHECKPOINT_MAGIC = b"BGC1"
# Version 2 files hold no bias for the convs that feed a batch norm;
# version 1 files, which did, are refused and the model must be retrained.
CHECKPOINT_VERSION = 2
# The fixed start of a checkpoint: magic, format version, header length.
_CHECKPOINT_HEAD = struct.Struct("<4sII")

# Hard labels are clipped into [LABEL_EPS, 1 - LABEL_EPS] before the beta
# log-density is evaluated at them.
LABEL_EPS = 0.01

# Crop draws per training record per epoch; each epoch draws this many
# fresh windows of coverage from the run's one crop generator.
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


def _fold_conv_bn(conv: Conv1D, bn: BatchNorm1D):
    """(matrix, bias) of conv then bn in infer mode as one GEMM: bn's map
    y * a + c folded into conv's kernel W * a and bias c (Jacob et al.
    2018); the conv has no bias of its own."""
    a, c = bn.infer_affine()
    return (conv.weight.value * a[:, None, None]).reshape(conv.out_ch, -1), c


def fold_block(block: ResidualBlock):
    """The block's infer-mode kernels from its current parameters and
    running statistics, as fresh arrays: the (matrix, bias) pairs of
    conv1-bn1 and conv2-bn2, each matrix (out_ch, in_ch * kernel)."""
    return (_fold_conv_bn(block.conv1, block.bn1),
            _fold_conv_bn(block.conv2, block.bn2))


class ResidualBlock:
    """conv-BN-ReLU-conv-BN, shortcut add, ReLU.

    When the block strides or changes the channel count, the shortcut goes
    through a kernel-1 projection convolution with the same stride.

    In infer mode each batch norm is a fixed per-channel affine map, so
    conv1-bn1 and conv2-bn2 each run as one GEMM with the batch norm folded
    into the conv's kernel and a bias, and both ReLUs run in place on arrays
    the block owns. The folded kernels come as fold_block's two (matrix,
    bias) pairs: a model passes the pairs its infer plan holds, and a block
    run on its own folds its current parameters on the spot. The
    projection, with no batch norm to fold, runs its own infer forward.
    Either way every sublayer emits its output and drops its train cache as
    its own infer forward would. The fused output is accurate to float32
    rounding, as the unfused infer forward is. The train forward walks the
    layers one by one, its bits unchanged.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int, *,
                 rng, dtype, name: str):
        self.name = name
        self.conv1 = Conv1D(in_ch, out_ch, kernel, stride, rng=rng,
                            bias=False, dtype=dtype, name=f"{name}.conv1")
        self.bn1 = BatchNorm1D(out_ch, dtype=dtype, name=f"{name}.bn1")
        self.relu_inner = ReLU(name=f"{name}.relu1")
        self.conv2 = Conv1D(out_ch, out_ch, kernel, 1, rng=rng,
                            bias=False, dtype=dtype, name=f"{name}.conv2")
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

    def forward(self, x: np.ndarray, train: bool = False,
                fold: tuple | None = None) -> np.ndarray:
        # The main path's output is a fresh array, so the join adds into it;
        # x itself (the identity shortcut) is never written.
        if not train:
            (k1, b1), (k2, b2) = fold_block(self) if fold is None else fold
            z = self.bn1.emit(self.conv1.infer_gemm(x, k1, b1))
            self.relu_inner.emit(np.maximum(z, 0, out=z))
            z = self.bn2.emit(self.conv2.infer_gemm(z, k2, b2))
            z += x if self.proj is None else self.proj.forward(x)
            return self.join.emit(np.maximum(z, 0, out=z))
        z = _walk(self.main, x, True)
        z += _walk(self.shortcut, x, True)
        return self.join.forward(z, True)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        gz = self.join.backward(grad_out)
        g = _walk_back(self.main, gz)
        g += _walk_back(self.shortcut, gz)
        return g


class InferPlan:
    """What the infer forward reuses between calls: every residual block's
    fold_block pairs, aligned with Model.nodes (None for the other nodes),
    and a bitwise snapshot, as uint32 words, of the model's flat parameter
    values and running statistics that the folds were computed from. The
    snapshot is taken before folding, so a write racing the build can only
    make the plan stale, never wrong."""

    __slots__ = ("values", "stats", "folds")

    def __init__(self, model: Model):
        self.values = model.flat_params.value.view(np.uint32).copy()
        self.stats = model.running_stats.view(np.uint32).copy()
        self.folds = [fold_block(node) if isinstance(node, ResidualBlock)
                      else None for node in model.nodes]

    def matches(self, model: Model) -> bool:
        """Whether model's parameters and running statistics still hold
        the snapshot's bits. Comparing bits, not values, sees a -0.0 / +0.0
        flip and a NaN written over a NaN."""
        return (np.array_equal(self.values, model.flat_params.value.view(np.uint32))
                and np.array_equal(self.stats, model.running_stats.view(np.uint32)))


class Model:
    """The assembled network: stem, residual groups, beta-parameter head."""

    def __init__(self, spec: ArchitectureSpec, seed: int, *,
                 dtype=DEFAULT_DTYPE):
        self.spec = spec
        self.dtype = dtype
        rng = np.random.default_rng(int(seed))

        stem_kernel, stem_ch, stem_pool = spec.stem
        # The stem conv reads the network input, whose gradient nothing
        # reads, so its backward computes only the kernel gradient.
        self.stem_conv = Conv1D(1, stem_ch, stem_kernel, 1, rng=rng,
                                bias=False, input_grad=False, dtype=dtype,
                                name="stem.conv")
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

        # The walk order; backward walks it reversed.
        self.nodes = [self.stem_conv, self.stem_pool, self.stem_bn,
                      self.stem_relu, *itertools.chain(*self.groups),
                      self.global_pool, self.head_dense, self.head_softplus]

        # One flat buffer per role behind every Param, so an Adam step is
        # one pass per role over the whole model, and one buffer behind
        # every batch norm's running statistics, so the infer plan's check
        # reads two buffers.
        self.flat_params = pack_params(self.params())
        self.running_stats = pack_running_stats(
            [layer for layer in self._layers_with_params()
             if isinstance(layer, BatchNorm1D)])
        self.adam = AdamState()
        # Built by the first infer forward, rebuilt by the first one after
        # any write to the parameters or running statistics.
        self._infer_plan: InferPlan | None = None

    # -- structure walking -------------------------------------------------

    def _layers_with_params(self):
        for node in self.nodes:
            if isinstance(node, ResidualBlock):
                yield from node.sublayers()
            elif node.params():
                yield node

    def params(self) -> list[Param]:
        return [p for layer in self._layers_with_params() for p in layer.params()]

    def named_entries(self) -> list[tuple[str, np.ndarray]]:
        """Every trainable array plus BN running statistics, in walk order,
        which is the checkpoint format's entry order. The returned arrays
        are live references."""
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
        (alpha, beta) pair per crop.

        An infer-mode forward runs from the model's infer plan: every
        residual block's convs with their batch norms folded in. It reuses
        the last plan while the flat parameter buffer and the running
        statistics buffer hold the plan's snapshot bit for bit, and
        otherwise builds a new one first, so no write to the parameters
        (Adam, a checkpoint load, a train pass, an in-place edit) leaves a
        stale fold. It keeps no layer cache (it only resets each layer's
        cache to None) and leaves the parameters and batch-norm statistics
        alone. A plan is never changed once built; a forward reads the
        model's plan attribute once and publishes a new plan by one
        assignment, so concurrent infer-mode forwards are safe (two may
        each build an equal plan). Training, a train-mode forward plus its
        backward, needs exclusive ownership of the model.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=self.dtype))
        if x.ndim != 3 or x.shape[1] != 1:
            raise ValueError(f"expected input of shape (batch, 1, length), got {x.shape}")
        if x.shape[2] != self.spec.input_length:
            raise ValueError(
                f"crop length {x.shape[2]} does not match architecture input "
                f"length {self.spec.input_length}"
            )
        if train:
            return _walk(self.nodes, x, True)
        plan = self._infer_plan
        if plan is None or not plan.matches(self):
            plan = self._infer_plan = InferPlan(self)
        for node, fold in zip(self.nodes, plan.folds):
            x = node.forward(x) if fold is None else node.forward(x, False, fold)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        _walk_back(self.nodes, grad_out)


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

    betadist.beta_nll_batch clips the targets into [label_eps,
    1-label_eps], checks the head's outputs and evaluates the loss and its
    analytic (alpha, beta) gradient, which feeds the network backward
    pass. Parameter gradients accumulate into each Param.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError("targets must be a non-empty 1-D sequence")
    if targets.size != crops.shape[0]:
        raise ValueError(
            f"{targets.size} targets for {crops.shape[0]} crops"
        )
    out = model.forward(crops, train=True)
    loss, grad = beta_nll_batch(out.tolist(), targets.tolist(), label_eps)
    model.backward(np.array(grad, dtype=model.dtype))
    return loss


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


def _validate_train_records(records, soft_targets: bool, crop_len: int):
    """The records training draws from: with soft targets, only those the
    changepoint sampler can use, so the batch bound counts those alone."""
    if not records:
        raise UsageError("training split is empty")
    if soft_targets:
        usable = [r for r in records if has_changepoint_crops(r, crop_len)]
        if not usable:
            raise UsageError(
                "soft-target training needs records with changepoint "
                f"annotations at least one crop ({crop_len} samples) long"
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
    val_macro_f1 is the F1 that `eval` reports for the same weights. One
    crop generator, seeded from config.seed, serves the whole run, so each
    epoch draws fresh crops and augmentation factors (even a zero learning
    rate gives a different loss every epoch), and two runs with the same
    seed match exactly. The config checked its values when it was built.
    """
    if config.arch_preset != model.spec.preset_name:
        raise UsageError(
            f"config arch_preset {config.arch_preset!r} does not match the "
            f"model's preset {model.spec.preset_name!r}"
        )
    crop_len = model.spec.input_length
    train_records = _validate_train_records(dataset.train_records(),
                                            config.soft_targets, crop_len)
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
    rng = np.random.default_rng([config.seed, 1])
    for epoch in range(config.epochs):
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
        fh.write(_CHECKPOINT_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                       len(meta_bytes)))
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

    A file that cannot be opened, whose format version is not
    CHECKPOINT_VERSION, or whose header or tensors do not describe a
    complete, finite model with non-negative batch-norm running variances,
    its entries in `Model.named_entries` order, raises DataError; its
    message names the file and the check that refused it.

    Adam's moments are not saved, so the header's step count, like its
    config echo, is a record of the run: the loaded model's optimizer
    starts at step 0.
    """
    with open_input(path, "checkpoint file") as fh:
        reader = BinaryReader(fh)
        magic, version, meta_len = reader.unpack(_CHECKPOINT_HEAD.format,
                                                 "the file head")
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (magic {magic!r})")
        if version != CHECKPOINT_VERSION:
            raise DataError(
                f"{path}: checkpoint format version {version} is not supported "
                f"(expected {CHECKPOINT_VERSION}); retrain the model to "
                f"write a version {CHECKPOINT_VERSION} checkpoint"
            )
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
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise DataError(
                f"{path}: bad checkpoint header: {exc!r}") from exc
        entries = model.named_entries()
        (n_entries,) = reader.unpack("<I", "entry count")
        if n_entries != len(entries):
            raise DataError(
                f"{path}: checkpoint holds {n_entries} entries, architecture "
                f"{spec.preset_name!r} has {len(entries)}")
        # Each entry's name, rank and dims are checked against the entry
        # expected before anything after them is read.
        for name, dest in entries:
            (name_len,) = reader.unpack("<I", "name length")
            found = reader.read(name_len, "entry name")
            if found != name.encode():
                raise DataError(
                    f"{path}: expected entry {name!r}, found {found!r}")
            (rank,) = reader.unpack("<I", "rank")
            if rank != dest.ndim:
                raise DataError(
                    f"{path}: entry {name!r} has rank {rank}, architecture "
                    f"expects shape {dest.shape}")
            dims = reader.unpack(f"<{rank}I", "dims")
            if dims != dest.shape:
                raise DataError(
                    f"{path}: entry {name!r} has shape {dims}, architecture "
                    f"expects {dest.shape}")
            arr = reader.read_f32(dest.size, f"data for {name}")
            if not np.isfinite(arr).all():
                raise DataError(
                    f"{path}: entry {name!r} holds NaN or inf")
            # Training's running variance is an average of variances, so a
            # negative one cannot come from a trained model.
            if name.endswith(".running_var") and (arr < 0).any():
                raise DataError(
                    f"{path}: entry {name!r} holds a negative variance")
            dest[...] = arr.reshape(dims)
        reader.end("the last entry")
    return model
