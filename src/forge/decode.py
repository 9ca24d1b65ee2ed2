"""Tape-free decoding with a per-layer key/value cache.

``extend`` is the one kernel entry: it appends a block of t tokens per batch
row to a cache of length L under ``np.tri(t, L + t, L)``, so each new token
sees every cached key and the block is causal within itself; one token per
row sees every key and takes no mask. ``prefill`` is ``extend`` on an empty
cache, whose mask is then the causal triangle that ``forward`` uses. It
works on plain numpy arrays with a leading batch axis and runs each layer op
on the kernel of the tape primitive that ``model.forward`` records
(``_rms_norm``, ``_swiglu``, and for attention ``_rotate_pairs`` before the
cache and ``_attend`` after it), so ``prefill`` logits are bit-identical to
``forward``'s, and each row of a batched ``extend`` to a batch of one.
``extend`` logits on a non-empty cache agree with the matching rows of
``forward`` to float rounding only: a matmul over fewer rows may take a
different BLAS kernel than the full-sequence one. ``extend`` runs
``_attend`` tape-free, its softmax in the one ``q @ kᵀ`` buffer, and
broadcasts a one-row cache to B rows in the append that copies it anyway.

``bucket_logits`` is the one batched scorer: eval's choices and the frozen
reference passes of DPO and GRPO, each bucket behind one shared cache row.
``decode`` is the one decoding loop. It advances a round of continuations
that share one prefill, and its cache row, in lockstep, choosing every live
row's next token in one batched call; GRPO temperature
sampling (a group's rollouts, each from its own row of one block of uniform
draws) and greedy evaluation (a round of one) differ only in that chooser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _LAYER_SHAPES,
    Checkpoint,
    check_token_ids,
    neg_inf_for,
    rope_frequencies,
)
from .tensor import _attend, _rms_norm, _rotate_pairs, _swiglu


@dataclass
class KVCache:
    """Rotated keys and values per layer, each (batch, n_kv_heads, length, head_size)."""

    keys: list
    values: list

    @property
    def length(self) -> int:
        return self.keys[0].shape[2] if self.keys else 0

    def take(self, rows) -> "KVCache":
        """A cache of the given batch rows, e.g. those of the continuations
        that still run, to extend without touching this one: indexing copies,
        and ``extend`` replaces list entries."""
        rows = np.asarray(rows, dtype=np.int64)
        return KVCache(keys=[k[rows] for k in self.keys], values=[v[rows] for v in self.values])

    def trim(self, length: int) -> "KVCache":
        """The first ``length`` positions of every row, as views: ``extend``
        replaces list entries and never writes into them, so extending the
        trimmed cache leaves this one as it was."""
        return KVCache(keys=[k[:, :, :length] for k in self.keys], values=[v[:, :, :length] for v in self.values])


def extend(ckpt: Checkpoint, tokens, cache: KVCache) -> np.ndarray:
    """Append ``tokens`` (B, t) to the B rows of ``cache`` (in place) at
    positions L..L+t-1; their logits (B, t, vocab). Each new token sees every
    cached key, and the new tokens see each other causally: the mask is
    ``np.tri(t, L + t, L)``, and a single token, which sees every key, takes
    none. Every matmul is stacked on the batch axis, so numpy runs the same
    gemm per row as for a batch of one, and a row's bits do not depend on B.

    A one-row cache serves all B rows: each layer's append concatenates the
    new keys and values to it broadcast to B rows, the one copy made; other
    row counts than 1 or B raise ValueError. List entries are replaced, never
    written into, so a ``KVCache`` over new lists of the same arrays leaves
    the cache they came from as it was."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] == 0:
        raise ValueError(f"extend: tokens must be (batch, t) with t >= 1, got shape {tokens.shape}")
    cfg, p = ckpt.config, ckpt.params
    tokens = check_token_ids(tokens.reshape(-1), cfg.vocab_size).reshape(tokens.shape)
    (b, t_len), start, hs = tokens.shape, cache.length, cfg.head_size
    held = cache.keys[0].shape[0] if cache.keys else b
    if held != b:  # a one-row cache's views broadcast to b rows, copied once in each layer's append
        if held != 1:
            raise ValueError(f"extend: the cache holds {held} rows for {b} rows of tokens (it must hold 1 or {b})")
        for arrays in (cache.keys, cache.values):
            arrays[:] = [np.broadcast_to(a, (b, *a.shape[1:])) for a in arrays]
    mask = np.tri(t_len, start + t_len, start, dtype=bool) if t_len > 1 else None
    x = p["embed.tok"].data[tokens]
    eps, fill = cfg.rmsnorm_eps, neg_inf_for(x.dtype)
    tables = rope_frequencies(hs, cfg.rope_theta, np.arange(start, start + t_len))
    cos, sin = tables.cos.astype(x.dtype), tables.sin.astype(x.dtype)
    scale = 1 / math.sqrt(hs)
    for i in range(cfg.n_layers):
        lw = {k: p[f"layers.{i}.{k}"].data for k in _LAYER_SHAPES}
        h = _rms_norm(x, lw["attn_norm.g"], eps)[0]
        q, k, v = ((h @ lw[f"attn.w{n}"]).reshape(b, t_len, -1, hs).transpose(0, 2, 1, 3) for n in "qkv")
        q, k = _rotate_pairs(q, cos, sin), _rotate_pairs(k, cos, sin)
        if i < len(cache.keys):
            k = cache.keys[i] = np.concatenate([cache.keys[i], k], axis=2)
            v = cache.values[i] = np.concatenate([cache.values[i], v], axis=2)
        else:
            cache.keys.append(k)
            cache.values.append(v)
        x = x + _attend(q, k, v, mask, (), scale, fill, taped=False) @ lw["attn.wo"]
        h = _rms_norm(x, lw["ffn_norm.g"], eps)[0]
        x = x + _swiglu(h @ lw["ffn.w_gate"], h @ lw["ffn.w_up"]) @ lw["ffn.w_down"]
    return _rms_norm(x, p["final_norm.g"].data, eps)[0] @ p["lm_head"].data


def prefill(ckpt: Checkpoint, tokens) -> tuple[np.ndarray, KVCache]:
    """Logits (T, vocab) for a causal token sequence, and its key/value cache
    (a batch of one): ``extend`` on an empty cache."""
    tokens = check_token_ids(tokens, ckpt.config.vocab_size)
    if len(tokens) == 0:
        raise ValueError("prefill: the prompt is empty")
    cache = KVCache(keys=[], values=[])
    return extend(ckpt, tokens[None], cache)[0], cache


def bucket_logits(ckpt: Checkpoint, seqs, cache: KVCache | None = None):
    """Per bucket of equal-length ``seqs`` (empty ones skipped), shortest first,
    one ``extend`` behind the one row of ``cache`` (empty when None), which
    every row of the bucket shares, yielding the bucket's indices in ``seqs``
    and its logits (count, length, vocab); ``cache`` is left as it was. From
    an empty cache a whole sequence's rows are ``forward``'s bit for bit."""
    cache = KVCache(keys=[], values=[]) if cache is None else cache
    for n in sorted({len(s) for s in seqs} - {0}):
        bucket = [k for k, s in enumerate(seqs) if len(s) == n]
        rows = np.stack([seqs[k] for k in bucket])  # the bucket's cache is left unnamed, to go when extend returns
        yield bucket, extend(ckpt, rows, KVCache(keys=list(cache.keys), values=list(cache.values)))


def decode(ckpt: Checkpoint, prefilled, rows: int, max_new: int, choose, stop=()) -> list[list[int]]:
    """One round of ``rows`` continuations of a prompt, from its ``prefilled``
    = ``prefill(ckpt, prompt)``, decoded in lockstep: one batched ``extend``
    of one token per row for all that still run. At token n,
    ``choose(logits, live, n)`` returns the next ids of the ``live`` rows
    (their indices in the round, ascending) from their last logits
    (len(live), vocab). A row ends at a token in ``stop`` (kept in its
    output) or after ``max_new`` tokens. The rows share the prompt's one
    cache row until the first ``extend`` broadcasts it to them; that
    ``extend`` replaces entries of the round's own lists, so several rounds
    can start from one prefill.

    A round keeps the rows up to the first that ended before ``max_new``
    tokens; the rows after it take no token at that step and no further
    ``extend``. This serves a sampler whose row m draws from its stream's
    offset m * ``max_new``: the rows after an early stop started at the
    wrong offsets, and the caller redraws them in another round (see
    ``train.loops.sample_response``). Greedy decoding is a round of one."""
    stop = {int(s) for s in stop}
    logits, cache = prefilled
    outs: list[list[int]] = [[] for _ in range(rows)]
    live = np.arange(rows)  # rows still decoding, in order
    cache = KVCache(keys=list(cache.keys), values=list(cache.values))  # one row, shared
    last = np.broadcast_to(logits[-1], (rows, logits.shape[-1]))
    kept = rows
    for n in range(max_new):
        if n:
            last = extend(ckpt, [[outs[m][-1]] for m in live], cache)[:, 0]
        for m, token in zip(live, choose(last, live, n)):
            outs[m].append(int(token))
            if outs[m][-1] in stop and n + 1 < max_new:
                kept = m + 1
                break  # the rows behind an early stop take no token
        still = [j for j, m in enumerate(live) if m < kept and outs[m][-1] not in stop]
        if len(still) < len(live):
            live = live[still]
            if n:  # before the first extend every row shares the one cache row
                cache = cache.take(still)
        if not len(live):
            break
    return outs[:kept]
