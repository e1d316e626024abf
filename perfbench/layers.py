"""Layer map of the benchmark: span names, analytic conv counts, and the
per-layer metrics computed from a trace.

Layers are the library's modules. Every span name starts with the module
it measures (`nn.`, `model.`, `data.`, `betadist.`, `predict`, `metrics.`,
`cli.`); the benchmark's own op spans start with `op.`.
"""

from __future__ import annotations

import importlib
import statistics

STEP, RECORD = "op.step", "op.record"
OP_KINDS = (STEP, RECORD)

# Module functions wrapped in the traced run, by module and span name.
TRACED_FUNCTIONS = {
    "betamix.data": {
        "synth_generate": "data.synth_generate",
        "write_dataset": "data.write_dataset",
        "load_dataset": "data.load_dataset",
        "sample_crop_batch": "data.sample_crop_batch",
        "orient_signal": "data.orient",
    },
    "betamix.model": {
        "save_checkpoint": "model.save_checkpoint",
        "load_checkpoint": "model.load_checkpoint",
        "loss_and_grads": "model.loss_and_grads",
    },
    "betamix.nn": {"adam_step": "nn.adam_step"},
    "betamix.betadist": {"mixture_summary": "betadist.mixture_summary"},
    # `betamix` re-exports the function `predict`, which shadows this
    # submodule as a package attribute; callers import it by name.
    "betamix.predict": {
        "predict": "predict",
        "reject_by_uncertainty": "predict.reject_by_uncertainty",
    },
    "betamix.metrics": {"confusion": "metrics.confusion",
                        "report": "metrics.report"},
    "betamix.cli": {"main": "cli.main"},
}


def instrument_library(tracer) -> None:
    for modname, functions in TRACED_FUNCTIONS.items():
        module = importlib.import_module(modname)
        for attr, span in functions.items():
            tracer.add_function(getattr(module, attr), span)


def _layer_span(layer) -> str:
    kind = type(layer).__name__
    if kind == "Conv1D":
        return f"nn.conv1d.k{layer.kernel_size}s{layer.stride}"
    if kind in ("GlobalMaxPool", "Dense", "Softplus"):
        return "nn.head"
    return {"BatchNorm1D": "nn.batchnorm", "MaxPool1D": "nn.maxpool",
            "ReLU": "nn.relu"}[kind]


def _model_forward_span(args, kwargs):
    train = kwargs.get("train", args[1] if len(args) > 1 else False)
    return "model.forward.train" if train else "model.forward.infer"


def instrument_model(tracer, model) -> None:
    """Wrap forward/backward of the model, every residual block (named by
    group) and every primitive layer."""
    tracer.add_method(model, "forward", _model_forward_span)
    tracer.add_method(model, "backward", "model.backward")
    primitives = [model.stem_conv, model.stem_pool, model.stem_bn,
                  model.stem_relu, model.global_pool, model.head_dense,
                  model.head_softplus]
    for gi, group in enumerate(model.groups):
        for block in group:
            tracer.add_method(block, "forward", f"model.g{gi}.fwd")
            tracer.add_method(block, "backward", f"model.g{gi}.bwd")
            primitives.extend(block.sublayers())
            primitives.append(block.relu_inner)
    for layer in primitives:
        name = _layer_span(layer)
        tracer.add_method(layer, "forward", f"{name}.fwd")
        tracer.add_method(layer, "backward", f"{name}.bwd")


# -- analytic conv counts ------------------------------------------------------


def conv_shapes(spec):
    """(in_ch, out_ch, kernel, stride, in_len, out_len) of every Conv1D of
    an architecture, in construction order, from the spec alone."""
    kernel, channels, pool = spec.stem
    length = spec.input_length
    shapes = [(1, channels, kernel, 1, length, length)]
    length = (length - pool) // pool + 1
    in_ch = channels
    for blocks, channels, kernel in spec.groups:
        for bi in range(blocks):
            stride = 2 if bi == 0 else 1
            out_len = -(-length // stride)
            shapes.append((in_ch, channels, kernel, stride, length, out_len))
            shapes.append((channels, channels, kernel, 1, out_len, out_len))
            if stride != 1 or in_ch != channels:
                shapes.append((in_ch, channels, 1, stride, length, out_len))
            length, in_ch = out_len, channels
    return shapes


def model_conv_shapes(model):
    """The same tuples read off a built model, to cross-check conv_shapes."""
    convs = [model.stem_conv]
    for group in model.groups:
        for block in group:
            convs.extend(l for l in block.sublayers()
                         if type(l).__name__ == "Conv1D")
    return [(c.in_ch, c.out_ch, c.kernel_size, c.stride) for c in convs]


def conv_counts(spec, batch: int) -> dict[str, float]:
    """Floating-point operations and compulsory float32 bytes of every
    convolution at one batch size.

    Forward: 2*B*Cout*Cin*K*Lout flops; it reads the input and the weights
    and writes the output. Backward computes dW and dX, each as many flops
    as the forward; it reads grad-out, the input and the weights and
    writes dX, dW and db.
    """
    out = {"fwd_flop": 0, "bwd_flop": 0, "fwd_bytes": 0, "bwd_bytes": 0}
    for cin, cout, k, _, lin, lout in conv_shapes(spec):
        flop = 2 * batch * cout * cin * k * lout
        x, y, w = batch * cin * lin, batch * cout * lout, cout * cin * k + cout
        out["fwd_flop"] += flop
        out["bwd_flop"] += 2 * flop
        out["fwd_bytes"] += 4 * (x + y + w)
        out["bwd_bytes"] += 4 * (y + x + w + x + w)
    return out


# -- per-layer metrics ---------------------------------------------------------

CONV_KINDS = ("k5s1", "k3s1", "k3s2", "k1s2")

# metric name -> (span names, "total" or "self"), normalized per op.
PER_OP = {}
for _k in CONV_KINDS:
    for _d in ("fwd", "bwd"):
        PER_OP[f"nn.conv1d.{_k}.{_d}_ms"] = ((f"nn.conv1d.{_k}.{_d}",), "total")
for _l in ("batchnorm", "maxpool", "relu", "head"):
    for _d in ("fwd", "bwd"):
        PER_OP[f"nn.{_l}.{_d}_ms"] = ((f"nn.{_l}.{_d}",), "total")
PER_OP["nn.adam_step_ms"] = (("nn.adam_step",), "total")
PER_OP.update({
    "model.infer_forward_ms": (("model.forward.infer",), "total"),
    "data.sample_crop_batch_ms": (("data.sample_crop_batch",), "total"),
    "data.orient_ms": (("data.orient",), "total"),
    "betadist.nll_loop_ms": (("model.loss_and_grads",), "self"),
    "betadist.mixture_summary_ms": (("betadist.mixture_summary",), "total"),
    "predict.self_ms": (("predict",), "self"),
})

# metric name -> span name, mean duration per call wherever it was called.
PER_CALL_MS = {
    "data.synth_generate_ms": "data.synth_generate",
    "data.write_dataset_ms": "data.write_dataset",
    "data.load_dataset_ms": "data.load_dataset",
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "metrics.eval_pass_ms": "metrics.eval_pass",
}


def per_layer_metrics(rec, main_kind, op_batches, spec, extra):
    """Per-layer metrics of a finished trace.

    A per-op metric is summed over the ops of the workload's own kind
    (`main_kind`) when the layer runs there, else over the ops of the
    other kind (the fixture training of predict_paper, or the validation
    pass that closes a training run), and divided by that op count.
    `op_batches[kind]` lists the batch size of every traced op of a kind.
    """
    self_ns = rec.self_times()
    roots = rec.roots()
    names = rec.names
    agg = {kind: {} for kind in OP_KINDS}
    per_call = {}
    n_ops = {kind: 0 for kind in OP_KINDS}
    for i, nid in enumerate(rec.name_of):
        name = names[nid]
        dur = rec.end[i] - rec.start[i]
        per_call.setdefault(name, []).append(dur)
        root_name = names[rec.name_of[roots[i]]]
        if root_name not in agg:
            continue
        if roots[i] == i:
            n_ops[root_name] += 1
        tot, slf = agg[root_name].get(name, (0, 0))
        agg[root_name][name] = (tot + dur, slf + self_ns[i])

    other = RECORD if main_kind == STEP else STEP

    def kind_for(spans):
        return main_kind if any(s in agg[main_kind] for s in spans) else other

    # Residual groups (model.g<i>.fwd/bwd) as many as the preset has; the
    # self time of their blocks is the residual join.
    per_op = dict(PER_OP)
    groups = [n for n in names if n.startswith("model.g")]
    for span in groups:
        per_op[f"{span}_ms"] = ((span,), "total")
    for d in ("fwd", "bwd"):
        per_op[f"model.block_join.{d}_ms"] = (
            tuple(n for n in groups if n.endswith(d)), "self")

    metrics = {}
    for metric, (spans, mode) in per_op.items():
        kind = kind_for(spans)
        if not any(s in agg[kind] for s in spans):
            continue  # the layer ran in no op
        col = 0 if mode == "total" else 1
        ns = sum(agg[kind][s][col] for s in spans if s in agg[kind])
        metrics[metric] = (ns / 1e6 / n_ops[kind], "ms")
    for metric, span in PER_CALL_MS.items():
        if span in per_call:
            metrics[metric] = (statistics.fmean(per_call[span]) / 1e6, "ms")
    if "cli.main" in per_call:
        metrics["cli.eval_s"] = (statistics.fmean(per_call["cli.main"]) / 1e9, "s")

    counts = {kind: [conv_counts(spec, b) for b in op_batches[kind]]
              for kind in OP_KINDS}
    main = counts[main_kind]
    flop = [c["fwd_flop"] + (c["bwd_flop"] if main_kind == STEP else 0) for c in main]
    byts = [c["fwd_bytes"] + (c["bwd_bytes"] if main_kind == STEP else 0) for c in main]
    metrics["nn.conv1d.gflop_per_step"] = (sum(flop) / len(flop) / 1e9, "GFLOP")
    metrics["nn.conv1d.mbytes_per_step"] = (sum(byts) / len(byts) / 1e6, "MB")
    for d in ("fwd", "bwd"):
        spans = tuple(f"nn.conv1d.{k}.{d}" for k in CONV_KINDS)
        kind = kind_for(spans)
        ns = sum(agg[kind][s][0] for s in spans if s in agg[kind])
        flop = sum(c[f"{d}_flop"] for c in counts[kind])
        metrics[f"nn.conv1d.{d}_gflops"] = (flop / ns, "GFLOP/s")

    # Self times of all spans under an op add up to the op's duration; the
    # op's own self time is the loop glue no layer accounts for.
    root_total = agg[main_kind][main_kind][0]
    self_total = sum(slf for _, slf in agg[main_kind].values())
    metrics["trace.unattributed_pct"] = (
        100.0 * agg[main_kind][main_kind][1] / root_total, "%")
    closure = abs(self_total - root_total) / root_total
    metrics.update(extra)
    return metrics, closure
