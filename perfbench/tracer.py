"""Span tracer that instruments ctxformer from outside the package.

`Tracer.installed()` replaces chosen module-level functions and methods of
the `data`, `model`, `attention`, `tensor`, `training`, `checkpoint` and
`inference` modules with timing wrappers, in every ctxformer namespace
that binds them (so `from .tensor import matmul` call sites are covered),
and restores the originals on exit. Nothing under `src/` changes.

Forward time: each wrapped call is a span. A span's self time is its
duration minus the time spent in its direct child spans. Tensor ops that
are not spans (matmul, add, softmax, ...) count towards the innermost
enclosing span.

Backward time: every graph node built while a span is open gets its
backward closure wrapped, and the closure's run time is charged to that
span's tag. `Tensor.backward` is itself a span; its duration minus all
closure time is the graph walk ("sweep").
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from ctxformer import attention, checkpoint, data, inference, model, tensor, training

BEAM = "inference.beam_search"
OTHER = "other"  # tag of graph nodes built outside every span


def ctxformer_bindings(original):
    """Every (module, attribute) in the loaded ctxformer package bound to `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "ctxformer" or name.startswith("ctxformer."):
            for attr, value in vars(module).items():
                if value is original:
                    found.append((module, attr))
    return found


def patch(stack: ExitStack, owner, attr: str, wrap) -> None:
    """Replace `owner.attr` by `wrap(original)` until `stack` closes.

    A class attribute is replaced on the class; a module function is
    replaced in every ctxformer module that imported it by name.
    """
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        targets = [(owner, attr)]
    else:
        original = getattr(owner, attr)
        targets = ctxformer_bindings(original)
    replacement = wrap(original)
    for target, name in targets:
        setattr(target, name, replacement)
        stack.callback(setattr, target, name, original)


# (span name, owner, attribute); the span names are the tracer's own keys.
SPANS = (
    ("data.make_batches", data, "make_batches"),
    ("data.collate", data, "collate"),
    ("model.embed", model.Seq2SeqModel, "embed"),
    ("model.encode", model.Seq2SeqModel, "encode"),
    ("model.decode", model.Seq2SeqModel, "decode"),
    ("model.forward_train", model.Seq2SeqModel, "forward_train"),
    ("model.encoder_layer", model, "encoder_layer"),
    ("model.base_encoder_layer", model, "base_encoder_layer"),
    ("model.decoder_layer", model, "decoder_layer"),
    ("model.cross_attn", model, "_cross_attention"),
    ("model.ffn", model, "_feed_forward"),
    ("attention.mix", attention, "multi_head_forward"),
    ("attention.dot", attention, "scaled_dot_product_attention"),
    ("attention.conv", attention, "dynamic_conv_head"),
    ("tensor.layer_norm", tensor, "layer_norm"),
    ("tensor.backward", tensor.Tensor, "backward"),
    ("training.loss", training, "multi_task_loss"),
    ("training.adam", training, "adam_step"),
    ("checkpoint.average", training, "average_checkpoints"),
    ("checkpoint.save", checkpoint, "save_arrays"),
    ("checkpoint.load", checkpoint, "load_arrays"),
    (BEAM, inference, "beam_search"),
)

# Spans whose self time is glue of the model layer (residual adds, dropout,
# auxiliary tag heads, length checks), reported together as model.other.
MODEL_GLUE = (
    "model.encode",
    "model.forward_train",
    "model.encoder_layer",
    "model.base_encoder_layer",
    "model.decoder_layer",
)


class Tracer:
    """Accumulates span and closure times; install with `installed()`."""

    def __init__(self):
        self.inclusive = defaultdict(float)  # span -> seconds, children included
        self.children = defaultdict(float)  # span -> seconds in direct child spans
        self.nested = defaultdict(float)  # (parent, child) -> seconds of child
        self.calls = defaultdict(int)  # span -> calls
        self.backward = defaultdict(float)  # creating span -> seconds in closures
        self.counts = defaultdict(int)  # plain counters
        self._stack: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str):
        stack = self._stack
        clock = time.perf_counter

        def wrap(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                stack.append(name)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self.inclusive[name] += elapsed
                    self.calls[name] += 1
                    if parent is not None:
                        self.children[parent] += elapsed
                        self.nested[parent, name] += elapsed

            return traced

        return wrap

    def _make(self, fn):
        stack = self._stack
        counts = self.counts
        closure_time = self.backward
        clock = time.perf_counter

        def make(data_, parents, backward_fn):
            out = fn(data_, parents, backward_fn)
            counts["tensor.ops"] += 1
            inner = out._backward_fn
            if inner is not None:
                tag = stack[-1] if stack else OTHER

                def timed(g):
                    start = clock()
                    inner(g)
                    closure_time[tag] += clock() - start

                out._backward_fn = timed
            return out

        return make

    def _count_matmul(self, fn):
        counts = self.counts

        def matmul(a, b):
            counts["tensor.matmul.calls"] += 1
            return fn(a, b)

        return matmul

    def _count_positions(self, fn):
        stack = self._stack
        counts = self.counts

        def decode(self_, tgt_in_ids, *args, **kwargs):
            if BEAM in stack:
                counts["inference.decoder_calls"] += 1
                counts["inference.decoder_positions"] += int(np.asarray(tgt_in_ids).size)
            return fn(self_, tgt_in_ids, *args, **kwargs)

        return decode

    def _count_bytes(self, fn):
        counts = self.counts

        def save_arrays(path, named):
            fn(path, named)
            for written in (Path(path), Path(str(path) + ".manifest")):
                counts["checkpoint.bytes_written"] += written.stat().st_size

        return save_arrays

    @contextmanager
    def installed(self):
        """Instrument ctxformer inside the block; restore it afterwards."""
        with ExitStack() as stack:
            patch(stack, tensor, "_make", self._make)
            patch(stack, tensor, "matmul", self._count_matmul)
            patch(stack, model.Seq2SeqModel, "decode", self._count_positions)
            patch(stack, checkpoint, "save_arrays", self._count_bytes)
            for name, owner, attr in SPANS:
                patch(stack, owner, attr, self._span(name))
            yield self

    # -- read-out ---------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.inclusive[name] - self.children[name]

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per operation (optimizer step or sentence)."""

        def ms(seconds: float):
            return (1000.0 * seconds / n_ops, "ms")

        def per_op(count: float):
            return (count / n_ops, "count")

        out = {"data.batching_ms": ms(self.inclusive["data.make_batches"] + self.inclusive["data.collate"])}
        for metric, spans in (
            ("model.embed", ("model.embed",)),
            ("model.cross_attn", ("model.cross_attn",)),
            ("model.ffn", ("model.ffn",)),
            ("model.out_proj", ("model.decode",)),
            ("model.other", MODEL_GLUE),
            ("attention.dot", ("attention.dot",)),
            ("attention.conv", ("attention.conv",)),
            ("attention.mix", ("attention.mix",)),
            ("tensor.layer_norm", ("tensor.layer_norm",)),
            ("training.loss", ("training.loss",)),
        ):
            out[f"{metric}.fwd_ms"] = ms(sum(self.self_time(s) for s in spans))
            out[f"{metric}.bwd_ms"] = ms(sum(self.backward[s] for s in spans))
        out["attention.dot.calls"] = per_op(self.calls["attention.dot"])
        out["attention.conv.calls"] = per_op(self.calls["attention.conv"])
        out["tensor.backward_ms"] = ms(self.inclusive["tensor.backward"])
        out["tensor.backward.sweep_ms"] = ms(
            self.inclusive["tensor.backward"] - sum(self.backward.values())
        )
        out["tensor.matmul.calls"] = per_op(self.counts["tensor.matmul.calls"])
        out["tensor.ops"] = per_op(self.counts["tensor.ops"])
        out["training.adam_ms"] = ms(self.self_time("training.adam"))
        out["checkpoint.save_ms"] = ms(self.inclusive["checkpoint.save"])
        out["checkpoint.bytes_written"] = (self.counts["checkpoint.bytes_written"] / n_ops, "bytes")
        out["checkpoint.average_ms"] = ms(self.self_time("checkpoint.average"))
        out["checkpoint.load_ms"] = ms(self.inclusive["checkpoint.load"])
        out["inference.encode_ms"] = ms(self.nested[BEAM, "model.encode"])
        out["inference.decoder_ms"] = ms(self.nested[BEAM, "model.decode"])
        out["inference.decoder_calls"] = per_op(self.counts["inference.decoder_calls"])
        out["inference.decoder_positions"] = per_op(self.counts["inference.decoder_positions"])
        out["inference.beam_bookkeeping_ms"] = ms(self.self_time(BEAM))
        return out
