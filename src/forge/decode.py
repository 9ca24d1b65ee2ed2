"""Tape-free decoding with a per-layer key/value cache.

``prefill`` runs a prompt through the model once and keeps each layer's
rotated keys and values; ``step`` then feeds one token at a time, attending
over the cache instead of re-running the whole prefix. Both work on plain
numpy arrays and run each layer op on the kernel of the tape primitive that
``model.forward`` records (``_rms_norm``, ``_rotate_pairs``, ``_masked_softmax``,
``_swiglu``), so ``prefill`` logits are bit-identical to ``forward``'s.
``step`` logits agree with the last row of ``forward`` to float rounding only:
a one-row matmul may take a different BLAS kernel than the full-sequence one.

``decode`` is the one decoding loop: GRPO temperature sampling and greedy
evaluation differ only in how they choose a token from the logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _LAYER_SHAPES,
    Checkpoint,
    build_attention_mask,
    check_token_ids,
    neg_inf_for,
    rope_frequencies,
)
from .tensor import _masked_softmax, _rms_norm, _rotate_pairs, _swiglu


@dataclass
class KVCache:
    """Rotated keys and values per layer, each (n_kv_heads, length, head_size)."""

    keys: list
    values: list

    @property
    def length(self) -> int:
        return self.keys[0].shape[1]

    def copy(self) -> "KVCache":
        """A cache to extend without touching this one. Shallow: ``_run``
        replaces list entries and never writes into the cached arrays."""
        return KVCache(keys=list(self.keys), values=list(self.values))


def _run(ckpt: Checkpoint, tokens: np.ndarray, positions, cache: KVCache, mask) -> np.ndarray:
    """Logits for ``tokens`` at ``positions``, attending over the cached keys
    and values (appended to in place) plus their own; ``mask`` is the causal
    mask among the new tokens, or None when every key is attendable."""
    cfg, p = ckpt.config, ckpt.params
    t_len = len(tokens)
    hs, nh, nkv, group = cfg.head_size, cfg.n_heads, cfg.n_kv_heads, cfg.group_size
    x = p["embed.tok"].data[tokens]
    eps, fill = cfg.rmsnorm_eps, neg_inf_for(x.dtype)
    tables = rope_frequencies(hs, cfg.rope_theta, positions)
    cos, sin = tables.cos.astype(x.dtype), tables.sin.astype(x.dtype)
    scale = tables.mscale * tables.mscale / math.sqrt(hs)
    for i in range(cfg.n_layers):
        lw = {k: p[f"layers.{i}.{k}"].data for k in _LAYER_SHAPES}
        h = _rms_norm(x, lw["attn_norm.g"], eps)[0]
        q = _rotate_pairs((h @ lw["attn.wq"]).reshape(t_len, nh, hs).transpose(1, 0, 2), cos, sin)
        k = _rotate_pairs((h @ lw["attn.wk"]).reshape(t_len, nkv, hs).transpose(1, 0, 2), cos, sin)
        v = (h @ lw["attn.wv"]).reshape(t_len, nkv, hs).transpose(1, 0, 2)
        if i < len(cache.keys):
            k = cache.keys[i] = np.concatenate([cache.keys[i], k], axis=1)
            v = cache.values[i] = np.concatenate([cache.values[i], v], axis=1)
        else:
            cache.keys.append(k)
            cache.values.append(v)
        s_len = k.shape[1]
        q = q.reshape(nkv, group, t_len, hs)
        scores = q @ k.reshape(nkv, 1, s_len, hs).transpose(0, 1, 3, 2)
        out = _masked_softmax(scores, mask, scale, fill)[0] @ v.reshape(nkv, 1, s_len, hs)
        x = x + out.transpose(2, 0, 1, 3).reshape(t_len, nh * hs) @ lw["attn.wo"]
        h = _rms_norm(x, lw["ffn_norm.g"], eps)[0]
        x = x + _swiglu(h @ lw["ffn.w_gate"], h @ lw["ffn.w_up"])[0] @ lw["ffn.w_down"]
    return _rms_norm(x, p["final_norm.g"].data, eps)[0] @ p["lm_head"].data


def prefill(ckpt: Checkpoint, tokens) -> tuple[np.ndarray, KVCache]:
    """Logits (T, vocab) for a causal token sequence, and its key/value cache."""
    tokens = check_token_ids(tokens, ckpt.config.vocab_size)
    t_len = len(tokens)
    if t_len == 0:
        raise ValueError("prefill: the prompt is empty")
    cache = KVCache(keys=[], values=[])
    mask = build_attention_mask(np.zeros(t_len, dtype=np.int64))
    return _run(ckpt, tokens, np.arange(t_len), cache, mask), cache


def step(ckpt: Checkpoint, token: int, cache: KVCache) -> np.ndarray:
    """Append one token's keys and values to ``cache``; its logits (vocab,)."""
    tokens = check_token_ids([token], ckpt.config.vocab_size)
    return _run(ckpt, tokens, [cache.length], cache, None)[0]


def decode(ckpt: Checkpoint, prompt, max_new: int, choose, stop=(), prefilled=None) -> list[int]:
    """Up to ``max_new`` tokens after ``prompt``, each ``choose(logits)`` of the
    last position; a chosen token in ``stop`` ends the output and stays in it.
    ``prefilled`` is ``prefill(ckpt, prompt)`` when the caller already has it:
    several decodes can start from one prefill, since each extends a copy."""
    stop = {int(s) for s in stop}
    logits, cache = prefill(ckpt, prompt) if prefilled is None else prefilled
    cache = cache.copy()
    last = logits[-1]
    out: list[int] = []
    for n in range(max_new):
        if n:
            last = step(ckpt, out[-1], cache)
        out.append(int(choose(last)))
        if out[-1] in stop:
            break
    return out
