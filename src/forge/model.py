"""Decoder-only transformer: RMSNorm, SwiGLU, RoPE, grouped-query attention
(one ``tensor.attention`` node per layer over every bucket, whose forward is
``decode``'s kernel ``_attend``), pre-norm residuals. In a row packed with
several samples, attention's softmax and the elementwise work of its VJP run
on each sample's diagonal block of the (T, T) scores only, and the tape keeps
only those blocks.

All functions are pure over a parameter dict. ``forward`` maps T token
ids to a T x vocab logit matrix, or a group of sequences (a GRPO group's
rollouts, a DPO pair) to their rows of logits in one pass: the layers work
on a flat block of rows in the given order (``tensor.RowBlock``) whose
equal-length sequences are stacked on a batch axis for the matmuls and
attention, and the result is bit-identical to a pass per sequence. It runs
under a tape except in ``evalharness.sequence_logprobs``, the tests' reference;
the tape-free passes (sampling, greedy generation, choice and reference
scoring) run on ``forge.decode``, the layer in numpy with a key/value cache
on the kernels of the same ``tensor`` primitives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor, rms_norm  # forward, the layer probe and the span hooks use model.rms_norm


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the production 11B layout.

    ``native_ctx`` and ``extended_ctx`` only record the context lengths in
    every checkpoint header: RoPE runs at its base frequencies, and no code
    reads them beyond the checks below.
    """

    n_layers: int = 50
    d_model: int = 4096
    n_heads: int = 32
    n_kv_heads: int = 8
    head_size: int = 128
    d_ff: int = 14336
    vocab_size: int = 32128
    rope_theta: float = 1e6
    native_ctx: int = 32768
    extended_ctx: int = 131072
    rmsnorm_eps: float = 1e-5

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "n_kv_heads", "head_size", "d_ff", "vocab_size",
                     "native_ctx", "extended_ctx"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.rope_theta) and self.rope_theta > 0):
            raise ValueError(f"rope_theta must be finite and > 0, got {self.rope_theta}")
        if not (math.isfinite(self.rmsnorm_eps) and self.rmsnorm_eps >= 0):
            raise ValueError(f"rmsnorm_eps must be finite and >= 0, got {self.rmsnorm_eps}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads ({self.n_kv_heads})"
            )
        if self.head_size % 2 != 0:
            raise ValueError(f"head_size must be even for rotary embedding, got {self.head_size}")
        if self.extended_ctx % self.native_ctx != 0:
            raise ValueError(
                f"extended_ctx ({self.extended_ctx}) must be a multiple of native_ctx ({self.native_ctx})"
            )

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict; ValueError on a non-object, an unknown field or
        a value of the wrong type (an int field takes no float or bool)."""
        if not isinstance(d, dict):
            raise ValueError(f"config is not an object: {d!r}")
        want = {f.name: type(f.default) for f in fields(cls)}
        for name, value in d.items():
            if name not in want:
                raise ValueError(f"unknown config field {name!r}")
            if not (type(value) is want[name] or (want[name] is float and type(value) is int)):
                raise ValueError(f"config field {name!r}: expected {want[name].__name__}, got {value!r}")
        return cls(**d)


@dataclass
class Checkpoint:
    """Named parameter tensors plus the config they instantiate."""

    config: ModelConfig
    params: dict[str, Tensor]


_LAYER_SHAPES = {
    "attn_norm.g": lambda c: (c.d_model,),
    "attn.wq": lambda c: (c.d_model, c.n_heads * c.head_size),
    "attn.wk": lambda c: (c.d_model, c.n_kv_heads * c.head_size),
    "attn.wv": lambda c: (c.d_model, c.n_kv_heads * c.head_size),
    "attn.wo": lambda c: (c.n_heads * c.head_size, c.d_model),
    "ffn_norm.g": lambda c: (c.d_model,),
    "ffn.w_gate": lambda c: (c.d_model, c.d_ff),
    "ffn.w_up": lambda c: (c.d_model, c.d_ff),
    "ffn.w_down": lambda c: (c.d_ff, c.d_model),
}

_TOP_SHAPES = {
    "embed.tok": lambda c: (c.vocab_size, c.d_model),
    "final_norm.g": lambda c: (c.d_model,),
    "lm_head": lambda c: (c.d_model, c.vocab_size),
}


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The exact parameter directory a config implies."""
    shapes = {name: fn(config) for name, fn in _TOP_SHAPES.items()}
    for i in range(config.n_layers):
        for suffix, fn in _LAYER_SHAPES.items():
            shapes[f"layers.{i}.{suffix}"] = fn(config)
    return shapes


def param_count(config: ModelConfig) -> int:
    """Closed-form total parameter count (norm gains, projections, embeddings, head)."""
    c = config
    per_layer = (
        2 * c.d_model  # two norm gains
        + c.d_model * c.n_heads * c.head_size  # wq
        + 2 * c.d_model * c.n_kv_heads * c.head_size  # wk, wv
        + c.n_heads * c.head_size * c.d_model  # wo
        + 3 * c.d_model * c.d_ff  # gate, up, down
    )
    return 2 * c.vocab_size * c.d_model + c.d_model + c.n_layers * per_layer


def init_params(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> Checkpoint:
    """Fresh checkpoint: normal(0, 0.02) projections and embeddings, unit norm gains."""
    params: dict[str, Tensor] = {}
    for name, shape in expected_param_shapes(config).items():
        if name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        else:
            data = (rng.standard_normal(shape) * 0.02).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return Checkpoint(config=config, params=params)


def validate_checkpoint(ckpt: Checkpoint) -> None:
    """Exact name/shape directory match and all-finite values, or ValueError."""
    expected = expected_param_shapes(ckpt.config)
    missing = sorted(set(expected) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(expected))
    if missing or extra:
        raise ValueError(f"checkpoint directory mismatch: missing={missing} extra={extra}")
    for name, shape in expected.items():
        got = ckpt.params[name].shape
        if tuple(got) != tuple(shape):
            raise ValueError(f"checkpoint tensor {name}: shape {got}, expected {shape}")
        if not np.all(np.isfinite(ckpt.params[name].data)):
            raise ValueError(f"checkpoint tensor {name} contains non-finite values")


# -- architectural pieces -------------------------------------------------------


def swiglu_ffn(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor,
               block: T.RowBlock | None = None) -> Tensor:
    """(silu(x W_gate) * (x W_up)) W_down over the rows of ``block`` (by
    default one sequence)."""
    gate = T.block_matmul(x, w_gate, block)
    return T.block_matmul(T.swiglu(gate, T.block_matmul(x, w_up, block)), w_down, block)


@dataclass
class RopeTables:
    """Pure-rotation cos/sin tables for a position list."""

    cos: np.ndarray  # (T, head_size/2)
    sin: np.ndarray  # (T, head_size/2)


def rope_frequencies(head_size: int, theta: float, positions) -> RopeTables:
    """Rotation tables for the given positions, at the base frequencies
    theta^(-2i/head_size)."""
    if head_size % 2 != 0:
        raise ValueError(f"head_size must be even, got {head_size}")
    positions = np.asarray(positions, dtype=np.float64)
    half = head_size // 2
    inv_freq = theta ** (-2.0 * np.arange(half, dtype=np.float64) / head_size)
    angles = positions[:, None] * inv_freq[None, :]
    return RopeTables(cos=np.cos(angles), sin=np.sin(angles))


def apply_rope(q: Tensor, k: Tensor, tables: RopeTables) -> tuple[Tensor, Tensor]:
    """Rotate interleaved (even, odd) channel pairs of q and k by position.

    q and k have shape (..., T, head_size); tables cover exactly T positions,
    as (T, head_size/2) or with leading axes that broadcast against q's.
    """
    half = tables.cos.shape[-1]
    for t in (q, k):
        if t.shape[-1] != 2 * half or t.shape[-2] != tables.cos.shape[-2]:
            raise T.ShapeError(
                f"apply_rope: tensor shape {t.shape} vs tables {tables.cos.shape}"
            )
    cos, sin = tables.cos.astype(q.dtype), tables.sin.astype(q.dtype)
    return T.rotate_pairs(q, cos, sin), T.rotate_pairs(k, cos, sin)


def neg_inf_for(dtype) -> float:
    """Large negative logit standing in for -inf; keeps softmax gradients NaN-free."""
    return -1e30 if np.dtype(dtype) == np.float64 else -1e9


def gqa_attention(
    x: Tensor,
    weights: dict[str, Tensor],
    mask,
    config: ModelConfig,
    tables=None,
    block: T.RowBlock | None = None,
) -> Tensor:
    """Grouped-query attention within each sequence of a block.

    x: (N, d_model), the rows ``block`` lays out (by default one sequence of
    N rows); weights holds wq/wk/wv/wo. Without a block, mask is a (T, T)
    boolean and tables a ``RopeTables`` (or None); with one, each is a list
    holding one entry per bucket, the mask (T, T) or (count, 1, 1, T, T)
    and the tables' cos/sin (T, half) or (count, 1, T, half). True marks
    attendable (key) positions, never a future one. Scores are scaled by
    1 / sqrt(head_size). The projections run over the whole block, and the
    rest is one ``tensor.attention`` node over every bucket, never over
    padding or across sequences. Where a mask splits into diagonal blocks
    (packed samples), the node's softmax works on those blocks and keeps
    only their exponentials and tie masks; its products stay full size, so
    the bits are those of the whole (T, T) softmax.
    """
    if block is None:
        block, mask, tables = T.RowBlock([x.shape[0]]), [mask], [tables]
    if not len(mask) == len(tables) == len(block.buckets):
        raise T.ShapeError(f"gqa_attention: {len(mask)} masks, {len(tables)} tables for {len(block.buckets)} buckets")
    masks = [np.asarray(m, dtype=bool) for m in mask]
    for (_, _, t_len), bucket_mask in zip(block.buckets, masks):
        if bucket_mask.shape[-2:] != (t_len, t_len):
            raise T.ShapeError(f"gqa_attention: mask shape {bucket_mask.shape}, expected {(t_len, t_len)}")
        if np.any(np.triu(bucket_mask, k=1)):
            raise ValueError("gqa_attention: mask allows attention to a future position")
    hs = config.head_size
    q, k, v = (T.block_matmul(x, weights[f"attn.w{n}"], block) for n in "qkv")
    ropes = [None if t is None else (t.cos.astype(x.dtype), t.sin.astype(x.dtype)) for t in tables]
    out = T.attention(q, k, v, block, hs, masks, ropes, 1 / math.sqrt(hs), neg_inf_for(x.dtype))
    return T.block_matmul(out, weights["attn.wo"], block)


def build_attention_mask(segment_ids: np.ndarray, dtype=bool) -> np.ndarray:
    """allow(i, j) iff same segment and j <= i."""
    seg = np.asarray(segment_ids)
    same = seg[:, None] == seg[None, :]
    causal = np.tril(np.ones((len(seg), len(seg)), dtype=bool))
    return (same & causal).astype(dtype)


def check_token_ids(tokens, vocab_size: int) -> np.ndarray:
    """tokens as a 1-D int64 sequence, or ValueError naming another shape, a
    non-integer dtype (floats and bools are never cast) or an id outside [0, vocab_size)."""
    if isinstance(tokens, (list, tuple)) and bool in map(type, tokens):  # numpy casts [5, True] to int64
        raise ValueError("token ids must be integers, got bool values")
    tokens = np.asarray(tokens)
    if tokens.size and tokens.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got {tokens.dtype} values")
    tokens = tokens.astype(np.int64, copy=False)
    if tokens.ndim != 1:
        raise ValueError(f"token ids must be a 1-D sequence, got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        bad = int(tokens.min()) if tokens.min() < 0 else int(tokens.max())
        raise ValueError(f"token id {bad} out of range for vocab of {vocab_size}")
    return tokens


def is_group(tokens) -> bool:
    """Whether ``tokens`` is a group (a list or tuple of id sequences) rather
    than one id sequence."""
    return isinstance(tokens, (list, tuple)) and len(tokens) > 0 and np.ndim(tokens[0]) > 0


def forward(
    ckpt: Checkpoint,
    tokens,
    segment_ids=None,
    positions=None,
) -> Tensor:
    """Logits (T, vocab) for one token sequence, or for a group of them (see
    ``is_group``) the rows of every sequence's logits, one sequence after
    another in the given order: (sum of T, vocab).

    segment_ids and positions take the form of ``tokens``: for a group, a
    list with one entry (or None) per sequence. Pre-norm residual stack:
    x += attn(norm(x)); x += ffn(norm(x)). The attention mask combines
    causality with segment equality, so packed sequences never attend
    across sample boundaries.

    A group runs as one pass, bit-identical per sequence to a pass of each
    alone. Its rows sit in one block in the given order (``RowBlock``):
    row-wise ops run once over the block, matmuls and the attention core
    once per bucket of equal-length sequences, and each parameter gradient
    adds its per-sequence parts in reverse sequence order, as separate
    passes on one tape would. One sequence is the group of one.
    """
    cfg = ckpt.config
    group = is_group(tokens)
    seqs = [check_token_ids(t, cfg.vocab_size) for t in (tokens if group else [tokens])]
    segs = (segment_ids if group else [segment_ids]) if segment_ids is not None else [None] * len(seqs)
    poss = (positions if group else [positions]) if positions is not None else [None] * len(seqs)
    if not (len(segs) == len(poss) == len(seqs)):
        raise ValueError("forward: segment_ids and positions need one entry per sequence")
    for i, seq in enumerate(seqs):
        if len(seq) == 0:
            raise ValueError(f"forward: sequence {i} is empty")
        for name, given in (("segment_ids", segs[i]), ("positions", poss[i])):
            if given is not None and len(given) != len(seq):
                raise ValueError(f"forward: sequence {i} has {len(seq)} tokens but {len(given)} {name}")
    block = T.RowBlock([len(s) for s in seqs])
    seg_rows = np.concatenate([np.zeros(len(s), dtype=np.int64) if g is None else np.asarray(g)
                               for s, g in zip(seqs, segs)])
    rope = rope_frequencies(cfg.head_size, cfg.rope_theta, np.concatenate(
        [np.arange(len(s)) if g is None else np.asarray(g) for s, g in zip(seqs, poss)]))
    half = cfg.head_size // 2
    masks, tables = [], []
    for rows, count, t_len in block.buckets:
        masks.append(np.stack([build_attention_mask(seg) for seg in seg_rows[rows].reshape(count, t_len)])[:, None, None])
        tables.append(RopeTables(cos=rope.cos[rows].reshape(count, 1, t_len, half),
                                 sin=rope.sin[rows].reshape(count, 1, t_len, half)))

    p = ckpt.params
    x = T.embedding(p["embed.tok"], np.concatenate(seqs), block)
    for i in range(cfg.n_layers):
        lw = {k: p[f"layers.{i}.{k}"] for k in _LAYER_SHAPES}
        h = rms_norm(x, lw["attn_norm.g"], cfg.rmsnorm_eps, block)
        x = x + gqa_attention(h, lw, masks, cfg, tables, block)
        h = rms_norm(x, lw["ffn_norm.g"], cfg.rmsnorm_eps, block)
        x = x + swiglu_ffn(h, lw["ffn.w_gate"], lw["ffn.w_up"], lw["ffn.w_down"], block)
    x = rms_norm(x, p["final_norm.g"], cfg.rmsnorm_eps, block)
    return T.block_matmul(x, p["lm_head"], block)
