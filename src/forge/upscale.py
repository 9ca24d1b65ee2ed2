"""Depth up-scaling and checkpoint merging.

Up-scaling stacks two overlapping copies of the source layers: the first
copy keeps the prefix [0 .. n-m-1], the second keeps the suffix [m .. n-1],
giving s = 2n - 2m layers that share the middle n - 2m layers twice.
Merging is a weighted per-parameter average used to consolidate nearby
training checkpoints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .model import Checkpoint, validate_checkpoint
from .tensor import Tensor

_LAYER_RE = re.compile(r"^layers\.(\d+)\.(.+)$")


@dataclass(frozen=True)
class UpscaleSpec:
    """n source layers, m excised at the junction; output depth s = 2n - 2m."""

    n: int
    m: int

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if not (0 <= self.m < self.n):
            raise ValueError(f"require 0 <= m < n, got n={self.n} m={self.m}")

    @property
    def s(self) -> int:
        return 2 * self.n - 2 * self.m


def layer_map(spec: UpscaleSpec) -> list[int]:
    """Source layer index feeding each output layer: [0..n-m-1] ++ [m..n-1]."""
    return list(range(0, spec.n - spec.m)) + list(range(spec.m, spec.n))


def depth_upscale(ckpt: Checkpoint, spec: UpscaleSpec) -> Checkpoint:
    """Duplicate-and-excise the layer stack; non-layer tensors copied once.

    Every output tensor is a fresh value copy, so training one copy of a
    shared source layer never mutates its twin.
    """
    if ckpt.config.n_layers != spec.n:
        raise ValueError(
            f"checkpoint has {ckpt.config.n_layers} layers, up-scale spec expects n={spec.n}"
        )
    mapping = layer_map(spec)
    out_params: dict[str, Tensor] = {}
    for name, tensor in ckpt.params.items():
        if not _LAYER_RE.match(name):
            out_params[name] = Tensor(tensor.data.copy(), requires_grad=True)
    for out_idx, src_idx in enumerate(mapping):
        for name, tensor in ckpt.params.items():
            match = _LAYER_RE.match(name)
            if match and int(match.group(1)) == src_idx:
                out_name = f"layers.{out_idx}.{match.group(2)}"
                out_params[out_name] = Tensor(tensor.data.copy(), requires_grad=True)
    out = Checkpoint(config=replace(ckpt.config, n_layers=spec.s), params=out_params)
    validate_checkpoint(out)
    return out


def merge_weights(weights, n: int) -> np.ndarray:
    """``weights`` for a merge of ``n`` checkpoints as float64: ValueError
    unless there are n of them, none negative and not all zero."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != n:
        raise ValueError(f"{n} checkpoints but {len(weights)} weights")
    if np.any(weights < 0):
        raise ValueError("merge weights must be non-negative")
    if weights.sum() == 0:
        raise ValueError("merge weights are all zero")
    return weights


def merge_checkpoints(ckpts: list[Checkpoint], weights) -> Checkpoint:
    """Per-parameter weighted mean: sum(w_i * p_i) / sum(w_i).

    Accumulates in float64 and casts back to the stored dtype, so a merge
    of identical checkpoints returns them bit-exactly and a one-hot weight
    vector selects a checkpoint exactly.
    """
    if len(ckpts) < 2:
        raise ValueError(f"merge needs at least 2 checkpoints, got {len(ckpts)}")
    weights = merge_weights(weights, len(ckpts))
    total = weights.sum()

    base = ckpts[0]
    names = sorted(base.params)
    for k, other in enumerate(ckpts[1:], start=1):
        if other.config != base.config:
            raise ValueError(f"checkpoint {k} config differs from checkpoint 0")
        if sorted(other.params) != names:
            raise ValueError(f"checkpoint {k} tensor directory differs from checkpoint 0")
        for name in names:
            if other.params[name].shape != base.params[name].shape:
                raise ValueError(f"checkpoint {k} tensor {name} shape differs")

    out_params: dict[str, Tensor] = {}
    for name in names:
        dtype = base.params[name].data.dtype
        acc = np.zeros(base.params[name].shape, dtype=np.float64)
        for w, ckpt in zip(weights, ckpts):
            acc += w * ckpt.params[name].data.astype(np.float64)
        out_params[name] = Tensor((acc / total).astype(dtype), requires_grad=True)
    out = Checkpoint(config=base.config, params=out_params)
    validate_checkpoint(out)  # weights whose sums overflow give non-finite values
    return out
