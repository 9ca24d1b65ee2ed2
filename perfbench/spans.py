"""Spans around forge's public functions, recorded from the benchmark side.

A ``Recorder`` replaces a function at the name its caller resolves
(``forge.train.loops.forward``, not only ``forge.model.forward``) with a
wrapper that appends one span per call: name, start, end, parent span,
workload iteration, and an optional cheap fact about the call (tokens,
tape nodes, reward). Spans stay in memory until ``dump``. Nothing inside
``src/forge`` changes; ``uninstall`` restores every original.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np


def _resolve(owner: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        mod, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


# -- facts captured per call (run after the call returns; kept cheap) ----------


def _tape_active() -> bool:
    from forge import tensor

    return tensor._current_graph() is not None


def _forward_fact(args, kwargs, out):
    return (len(args[1]), _tape_active())


def _forward_tokens_fact(args, kwargs, out):
    # the decode loop appends to its token list after the call: copy now
    return (len(args[1]), _tape_active(), np.array(args[1], dtype=np.int64))


def _taped_fact(args, kwargs, out):
    return _tape_active()


def _nodes_fact(args, kwargs, out):
    return len(args[0].nodes)


def _sample_fact(args, kwargs, out):
    stop_id = args[5] if len(args) > 5 else kwargs["stop_id"]
    return (len(out), bool(out) and out[-1] == stop_id)


def _reward_fact(args, kwargs, out):
    return float(out.reward)


def _len_arg1_fact(args, kwargs, out):
    return len(args[1])


def _scrub_fact(args, kwargs, out):
    return (len(args[0]), sum(out[1].counts.values()))


def _pack_fact(args, kwargs, out):
    max_len = kwargs["max_len"] if "max_len" in kwargs else args[1]
    return (sum(len(b) for b in out), len(out) * max_len)


def _file_size_fact(args, kwargs, out):
    return os.path.getsize(args[1])


def _output_fact(args, kwargs, out):
    return list(out)


# (owner, attribute, span name, fact). The span name's first part is the
# forge module the function belongs to; self time is charged to it.
STEP_HOOKS = [
    ("forge.train.loops", "lr_at", "train.lr_at", None),  # first call of a step
    ("forge.train.loops", "adamw_step", "train.adamw_step", None),  # last call of a step
    ("forge.train.loops", "sft_batch_loss", "train.sft_batch_loss", _len_arg1_fact),
    ("forge.train.loops", "sample_response", "train.sample_response", _sample_fact),
    ("forge.train.loops", "verify", "verifiers.verify", _reward_fact),
    ("forge.evalharness", "loglikelihood_choice", "evalharness.loglikelihood_choice", None),
    ("forge.evalharness", "generate_greedy", "evalharness.generate_greedy", _output_fact),
]

LAYER_HOOKS = [
    ("forge.cli", "run", "cli.run", None),
    ("forge.cli", "validate_config", "cli.validate_config", None),
    ("forge.cli", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("forge.cli", "save_checkpoint", "checkpoint.save_checkpoint", _file_size_fact),
    ("forge.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_size_fact),
    ("forge.cli", "depth_upscale", "upscale.depth_upscale", None),
    ("forge.cli", "load_tokenizer", "datapipe.load_tokenizer", None),
    ("forge.cli", "load_chat_dataset", "datapipe.load_chat_dataset", None),
    ("forge.cli", "render_chat", "datapipe.render_chat", None),
    ("forge.train.loops", "render_chat", "datapipe.render_chat", None),
    ("forge.cli", "pack_samples", "datapipe.pack_samples", _pack_fact),
    ("forge.cli", "scrub", "datapipe.scrub", _scrub_fact),
    ("forge.cli", "token_stats", "datapipe.token_stats", None),
    ("forge.datapipe.tokenizer", "train_bpe", "datapipe.train_bpe", None),
    ("forge.datapipe.tokenizer.TokenizerModel", "encode", "datapipe.encode", _len_arg1_fact),
    ("forge.datapipe.tokenizer.TokenizerModel", "decode", "datapipe.decode", None),
    ("forge.cli", "train_sft", "train.train_sft", None),
    ("forge.cli", "train_grpo", "train.train_grpo", None),
    ("forge.train.loops", "token_logprobs", "train.token_logprobs", _taped_fact),
    ("forge.train.loops", "sft_loss", "train.sft_loss", None),
    ("forge.train.loops", "grpo_objective", "train.grpo_objective", None),
    ("forge.train.loops", "clip_grad_norm", "train.clip_grad_norm", None),
    ("forge.cli", "run_suite", "evalharness.run_suite", None),
    ("forge.cli", "load_suite", "evalharness.load_suite", None),
    ("forge.evalharness", "run_task", "evalharness.run_task", None),
    ("forge.evalharness", "sequence_logprobs", "evalharness.sequence_logprobs", None),
    ("forge.model", "init_params", "model.init_params", None),
    ("forge.train.loops", "forward", "model.forward", _forward_fact),
    ("forge.evalharness", "forward", "model.forward", _forward_tokens_fact),
    ("forge.model", "rms_norm", "model.rms_norm", None),
    ("forge.model", "gqa_attention", "model.gqa_attention", None),
    ("forge.model", "apply_rope", "model.apply_rope", None),
    ("forge.model", "swiglu_ffn", "model.swiglu_ffn", None),
    ("forge.tensor", "embedding", "tensor.embedding", None),
    ("forge.tensor.Graph", "backward", "tensor.backward", _nodes_fact),
] + STEP_HOOKS

MODULES = ("cli", "checkpoint", "upscale", "datapipe", "train", "verifiers", "evalharness", "model", "tensor")


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "it", "fact")

    def __init__(self, name, parent, it):
        self.name, self.parent, self.it = name, parent, it
        self.t0 = self.t1 = 0.0
        self.fact = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Installs span wrappers; ``iteration`` tags spans with the workload
    iteration (or ``"setup"``) they belong to."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.iteration = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, fact):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.iteration)
            stack.append(len(spans))
            spans.append(span)
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
            if fact is not None:
                span.fact = fact(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> "Recorder":
        for owner_path, attr, name, fact in self.hooks:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, fact))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.dur
        return own

    def dump(self, path: Path, meta: dict) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s.name], round(s.t0, 7), round(s.t1, 7), s.parent, s.it]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "names": names,
                                    "columns": ["name", "start", "end", "parent", "iteration"],
                                    "spans": rows}), encoding="utf-8")
