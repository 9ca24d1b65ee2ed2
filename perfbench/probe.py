"""Layer probe: forward time, backward time and tape nodes of each model
building block, called on its own ``Graph`` at one model shape.

Forward time covers the block's call; backward time covers reducing its
output to a scalar (one multiply, one sum) and ``Graph.backward``; tape
nodes counts every node the block's call recorded, leaves included. The
AdamW step is tape-free, so it has a step time and a node count (0) only.
Each figure is the median of ``repeats`` calls.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import generate
from forge import model, tensor as T
from forge.train.losses import sft_loss
from forge.train.optim import adamw_step, init_state

BLOCKS = ("embedding", "rms_norm", "apply_rope", "gqa_attention", "swiglu_ffn", "lm_head_sft_loss")
PROBE_METRICS = [
    (f"probe.{b}.{k}", unit) for b in BLOCKS
    for k, unit in (("fwd_ms", "ms/call"), ("bwd_ms", "ms/call"), ("tape_nodes", "nodes/call"))
] + [("probe.adamw_step.fwd_ms", "ms/call"), ("probe.adamw_step.tape_nodes", "nodes/call")]


def _blocks(cfg: model.ModelConfig, t_len: int, rng):
    ckpt = model.init_params(cfg, rng, dtype=np.float32)
    p = ckpt.params
    lw = {k[len("layers.0."):]: v for k, v in p.items() if k.startswith("layers.0.")}
    x = T.Tensor(rng.standard_normal((t_len, cfg.d_model)).astype(np.float32), requires_grad=True)
    ids = rng.integers(0, cfg.vocab_size, size=t_len)
    tables = model.rope_frequencies(cfg.head_size, cfg.rope_theta, np.arange(t_len))
    mask = model.build_attention_mask(np.zeros(t_len, dtype=np.int64))
    q = T.Tensor(rng.standard_normal((cfg.n_heads, t_len, cfg.head_size)).astype(np.float32), requires_grad=True)
    k = T.Tensor(rng.standard_normal((cfg.n_kv_heads, t_len, cfg.head_size)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, cfg.vocab_size, size=t_len)
    loss_mask = np.ones(t_len, dtype=bool)
    calls = {
        "embedding": lambda: T.embedding(p["embed.tok"], ids),
        "rms_norm": lambda: model.rms_norm(x, lw["attn_norm.g"], cfg.rmsnorm_eps),
        "apply_rope": lambda: model.apply_rope(q, k, tables),
        "gqa_attention": lambda: model.gqa_attention(x, lw, mask, cfg, tables),
        "swiglu_ffn": lambda: model.swiglu_ffn(x, lw["ffn.w_gate"], lw["ffn.w_up"], lw["ffn.w_down"]),
        "lm_head_sft_loss": lambda: sft_loss(x @ p["lm_head"], targets, loss_mask),
    }
    return ckpt, calls


def _weights(out, rng):
    outs = out if isinstance(out, tuple) else (out,)
    return [(o, rng.standard_normal(o.shape).astype(np.float32)) for o in outs if o.size > 1]


def _reduce(out, weights):
    """Scalar seed: the output itself when it is one, else a weighted sum."""
    if not weights:
        return out
    total = None
    for o, w in weights:
        term = T.sum_(o * w)
        total = term if total is None else total + term
    return total


def run_probe(cfg: model.ModelConfig, t_len: int, seed: int, repeats: int) -> dict:
    rng = np.random.default_rng([seed, 7])
    ckpt, calls = _blocks(cfg, t_len, rng)
    out = {}
    for name, call in calls.items():
        fwd, bwd, nodes = [], [], 0
        for _ in range(repeats):
            with T.Graph() as g:
                t0 = perf_counter()
                y = call()
                fwd.append(perf_counter() - t0)
                nodes = len(g.nodes)
                weights = _weights(y, rng)
                t0 = perf_counter()
                g.backward(_reduce(y, weights))
                bwd.append(perf_counter() - t0)
        out[f"probe.{name}.fwd_ms"] = float(np.median(fwd)) * 1e3
        out[f"probe.{name}.bwd_ms"] = float(np.median(bwd)) * 1e3
        out[f"probe.{name}.tape_nodes"] = nodes
    grads = {n: rng.standard_normal(p.shape).astype(np.float32) * 1e-3 for n, p in ckpt.params.items()}
    state = init_state(ckpt.params)
    steps = []
    for _ in range(repeats):
        with T.Graph() as g:
            t0 = perf_counter()
            adamw_step(ckpt.params, grads, state, 1e-4)
            steps.append(perf_counter() - t0)
            nodes = len(g.nodes)
    out["probe.adamw_step.fwd_ms"] = float(np.median(steps)) * 1e3
    out["probe.adamw_step.tape_nodes"] = nodes
    return out


def probe_for(workload: str, seed: int) -> dict:
    """The probe at the shape a workload trains at: the upscaled toy model
    (T=40) under grpo-toy, the desk model (T=256) under sft-desk."""
    if workload == "grpo-toy":
        cfg = model.ModelConfig(**{**generate.TOY, "n_layers": 2 * generate.TOY["n_layers"] - 2 * generate.TOY_M})
        return run_probe(cfg, 40, seed, repeats=30)
    if workload == "sft-desk":
        return run_probe(model.ModelConfig(**generate.DESK), generate.DESK_ROW, seed, repeats=5)
    return {}
