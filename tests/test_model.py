"""Transformer pieces vs hand values and independent numpy oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from forge import decode, tensor as T
from forge.model import (
    Checkpoint,
    ModelConfig,
    RopeTables,
    apply_rope,
    build_attention_mask,
    check_token_ids,
    expected_param_shapes,
    forward,
    gqa_attention,
    init_params,
    neg_inf_for,
    param_count,
    rms_norm,
    rope_frequencies,
    swiglu_ffn,
    validate_checkpoint,
)
from forge.rng import named_rng
from forge.tensor import Graph, Tensor
from forge.train.losses import GrpoGroup, grpo_objective


def toy_config(**kw):
    base = dict(
        n_layers=2, d_model=8, n_heads=2, n_kv_heads=1, head_size=4,
        d_ff=16, vocab_size=11, rope_theta=10000.0, native_ctx=32,
        extended_ctx=128, rmsnorm_eps=1e-6,
    )
    base.update(kw)
    return ModelConfig(**base)


# -- rms_norm -------------------------------------------------------------------


def test_rms_norm_constant_vector():
    out = rms_norm(Tensor([2.0, 2.0]), Tensor([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out.numpy(), [1.0, 1.0], atol=1e-6)


def test_rms_norm_hand_value():
    out = rms_norm(Tensor([3.0, 4.0]), Tensor([1.0, 1.0]), eps=0.0)
    expected = np.array([3.0, 4.0]) / math.sqrt(12.5)
    np.testing.assert_allclose(out.numpy(), expected, rtol=1e-6)


def test_rms_norm_zero_input_finite():
    out = rms_norm(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]), eps=1e-5)
    assert np.all(np.isfinite(out.numpy()))
    np.testing.assert_allclose(out.numpy(), [0.0, 0.0])


def test_rms_norm_dim_mismatch():
    with pytest.raises(T.ShapeError):
        rms_norm(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0]), eps=0.0)


# -- swiglu ---------------------------------------------------------------------


def test_swiglu_zero_input():
    w = Tensor(np.ones((3, 5), dtype=np.float64))
    wd = Tensor(np.ones((5, 3), dtype=np.float64))
    out = swiglu_ffn(Tensor(np.zeros((2, 3), dtype=np.float64)), w, w, wd)
    np.testing.assert_allclose(out.numpy(), 0.0)


def test_swiglu_scalar_value():
    one = Tensor(np.ones((1, 1), dtype=np.float64))
    x = Tensor(np.array([[2.0]]))
    out = swiglu_ffn(x, one, one, one)
    expected = 2.0 / (1.0 + math.exp(-2.0)) * 2.0
    np.testing.assert_allclose(out.numpy(), [[expected]], rtol=1e-6)
    assert abs(expected - 3.5232) < 1e-4


def test_swiglu_gradient():
    rng = np.random.default_rng(0)
    p = {
        "x": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "wg": Tensor(rng.standard_normal((4, 6)), requires_grad=True),
        "wu": Tensor(rng.standard_normal((4, 6)), requires_grad=True),
        "wd": Tensor(rng.standard_normal((6, 4)), requires_grad=True),
    }
    err = T.gradient_check(lambda q: swiglu_ffn(q["x"], q["wg"], q["wu"], q["wd"]).sum(), p)
    assert err < 1e-4


# -- rope -----------------------------------------------------------------------


def test_rope_position_zero_identity_tables():
    tables = rope_frequencies(8, 10000.0, [0])
    np.testing.assert_allclose(tables.cos, 1.0)
    np.testing.assert_allclose(tables.sin, 0.0)


def test_rope_angles_hand_values():
    tables = rope_frequencies(4, 10000.0, [1])
    angles = np.arctan2(tables.sin, tables.cos)
    np.testing.assert_allclose(angles[0], [1.0, 0.01], rtol=1e-9)


def test_rope_odd_head_size_rejected():
    with pytest.raises(ValueError):
        rope_frequencies(5, 10000.0, [0])


def test_rope_apply_identity_at_zero():
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((1, 8)))
    k = Tensor(rng.standard_normal((1, 8)))
    tables = rope_frequencies(8, 10000.0, [0])
    rq, rk = apply_rope(q, k, tables)
    np.testing.assert_allclose(rq.numpy(), q.numpy(), atol=1e-12)
    np.testing.assert_allclose(rk.numpy(), k.numpy(), atol=1e-12)


def test_rope_preserves_pair_norms():
    rng = np.random.default_rng(2)
    q = Tensor(rng.standard_normal((5, 8)))
    tables = rope_frequencies(8, 10000.0, np.arange(5))
    rq, _ = apply_rope(q, q, tables)
    before = q.numpy().reshape(5, 4, 2)
    after = rq.numpy().reshape(5, 4, 2)
    np.testing.assert_allclose(
        np.linalg.norm(before, axis=-1), np.linalg.norm(after, axis=-1), rtol=1e-6
    )


def test_rope_relative_offsets():
    """q.k after rotation depends only on the position difference."""
    rng = np.random.default_rng(3)
    hs = 8
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal(hs)
        k = rng.standard_normal(hs)
        p1, p2 = rng.integers(0, 500, size=2)
        shift = int(rng.integers(0, 500))

        def rotated_dot(a, b, pa, pb):
            tables = rope_frequencies(hs, 10000.0, [pa, pb])
            ra, rb = apply_rope(
                Tensor(np.stack([a, a])), Tensor(np.stack([b, b])), tables
            )
            return float(np.dot(ra.numpy()[0], rb.numpy()[1]))

        d1 = rotated_dot(q, k, p1, p2)
        d2 = rotated_dot(q, k, p1 + shift, p2 + shift)
        worst = max(worst, abs(d1 - d2) / max(abs(d1), 1.0))
    assert worst < 1e-6, f"relative-offset violation: {worst:.2e}"


def test_rope_records_one_node_per_tensor():
    rng = np.random.default_rng(4)
    q = Tensor(rng.standard_normal((4, 5, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    with Graph() as g:
        apply_rope(q, k, rope_frequencies(8, 10000.0, np.arange(5)))
    assert [n.op for n in g.nodes] == ["leaf", "rotate_pairs", "leaf", "rotate_pairs"]


def test_toy_layer_tape_nodes():
    """Each layer adds at most 22 nodes to forward's tape, its 9 weights
    included; each RMSNorm, attention and SwiGLU gate is one node, with no
    head reshape, transpose or rotation of its own."""
    def ops(n_layers):
        cfg = toy_config(n_layers=n_layers, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64)
        with Graph() as g:
            forward(init_params(cfg, named_rng(0, "nodes")), np.arange(10))
        return [n.op for n in g.nodes]

    one, two = ops(1), ops(2)
    assert two.count("leaf") - one.count("leaf") == 9
    for op, count in (("rms_norm", 2), ("attention", 1), ("swiglu", 1)):
        assert two.count(op) - one.count(op) == count
    for op in ("masked_softmax", "rotate_pairs", "transpose", "reshape"):
        assert op not in two
    assert len(two) - len(one) <= 22


def test_ragged_group_tape_has_one_attention_node_per_layer():
    """A group of several lengths records what an equal-length one does: one
    attention node per layer over every bucket, and no row gather or concat."""
    cfg = toy_config(**GROUP_CONFIG)
    seqs = [np.arange(n) % cfg.vocab_size for n in GROUP_LENGTHS["mixed"]]
    with Graph() as g:
        forward(init_params(cfg, named_rng(0, "nodes")), seqs)
    ops = [n.op for n in g.nodes]
    assert ops.count("attention") == cfg.n_layers == 2
    assert "take_rows" not in ops and "concat" not in ops


def tape_bytes(fn) -> int:
    """tracemalloc's current bytes after fn runs under a Graph, minus before;
    the graph and fn's result stay alive while they are counted."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph() as g:
            out = fn()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.nodes and out is not None
    return kept


def test_one_layer_tape_keeps_no_attention_probabilities():
    """At 256 tokens and 4 heads the probabilities are 1 MiB, more than the
    slack: the VJP recomputes them from the exponentials and row sums, which
    the tape keeps with the bool tie mask; every row-sized array fits in the slack."""
    cfg = toy_config(n_layers=1, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64,
                     vocab_size=64, native_ctx=512, extended_ctx=2048)
    ckpt, t_len = init_params(cfg, named_rng(0, "tape")), 256
    scores = cfg.n_heads * t_len * t_len
    kept = tape_bytes(lambda: forward(ckpt, np.arange(t_len) % cfg.vocab_size))
    assert kept <= scores * 4 + scores + 768 * 1024  # float32 exponentials, bool tie mask, slack


def test_packed_row_tape_keeps_only_its_samples_blocks():
    """A 256-token row packed with 4 samples of 64 tokens keeps the
    exponentials and tie mask of its 4 diagonal blocks, a quarter of the
    (heads, T, T) arrays: outside them every probability is 0."""
    cfg = toy_config(n_layers=1, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64,
                     vocab_size=64, native_ctx=512, extended_ctx=2048)
    ckpt, t_len, seg = init_params(cfg, named_rng(0, "tape")), 256, 64
    blocks = cfg.n_heads * (t_len // seg) * seg * seg
    kept = tape_bytes(lambda: forward(ckpt, np.arange(t_len) % cfg.vocab_size, np.arange(t_len) // seg,
                                      np.arange(t_len) % seg))
    assert kept <= blocks * 4 + blocks + 768 * 1024  # float32 exponentials, bool tie mask, slack


def test_swiglu_tape_keeps_its_inputs_only():
    a, b = (Tensor(np.full((256, 1024), x, dtype=np.float32), requires_grad=True) for x in (0.5, 2.0))
    out_bytes = a.data.nbytes
    assert tape_bytes(lambda: T.swiglu(a, b)) <= out_bytes + 64 * 1024  # the output, no sigmoid of a


def test_rope_table_tensor_mismatch():
    q = Tensor(np.zeros((3, 8)))
    tables = rope_frequencies(8, 10000.0, [0, 1])  # only 2 positions
    with pytest.raises(T.ShapeError):
        apply_rope(q, q, tables)


# -- gqa attention ----------------------------------------------------------------


def mha_oracle(x, wq, wk, wv, wo, mask, hs, tables=None):
    """Plain numpy multi-head attention, one KV head per query head."""
    t_len = x.shape[0]
    nh = wq.shape[1] // hs
    q = (x @ wq).reshape(t_len, nh, hs).transpose(1, 0, 2)
    k = (x @ wk).reshape(t_len, nh, hs).transpose(1, 0, 2)
    v = (x @ wv).reshape(t_len, nh, hs).transpose(1, 0, 2)
    if tables is not None:
        def rot(t):
            e, o = t[..., 0::2], t[..., 1::2]
            out = np.empty_like(t)
            out[..., 0::2] = e * tables.cos - o * tables.sin
            out[..., 1::2] = e * tables.sin + o * tables.cos
            return out
        q, k = rot(q), rot(k)
    scores = q @ k.transpose(0, 2, 1) * (1.0 / math.sqrt(hs))
    scores = np.where(mask, scores, -1e30)
    w = np.exp(scores - scores.max(-1, keepdims=True))
    w = w / w.sum(-1, keepdims=True)
    out = (w @ v).transpose(1, 0, 2).reshape(t_len, nh * hs)
    return out @ wo


def test_gqa_group_one_equals_mha():
    cfg = toy_config(n_heads=2, n_kv_heads=2)
    rng = np.random.default_rng(4)
    t_len, d, hs = 6, cfg.d_model, cfg.head_size
    x = rng.standard_normal((t_len, d))
    weights = {
        "attn.wq": Tensor(rng.standard_normal((d, cfg.n_heads * hs))),
        "attn.wk": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wv": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wo": Tensor(rng.standard_normal((cfg.n_heads * hs, d))),
    }
    mask = np.tril(np.ones((t_len, t_len), dtype=bool))
    for tables in (None, rope_frequencies(hs, cfg.rope_theta, np.arange(t_len))):
        ours = gqa_attention(Tensor(x), weights, mask, cfg, tables).numpy()
        ref = mha_oracle(
            x, *(weights[f"attn.w{n}"].numpy() for n in "qkvo"), mask, hs, tables
        )
        np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_gqa_single_token_attends_to_itself():
    cfg = toy_config()
    rng = np.random.default_rng(5)
    d, hs = cfg.d_model, cfg.head_size
    x = rng.standard_normal((1, d))
    weights = {
        "attn.wq": Tensor(rng.standard_normal((d, cfg.n_heads * hs))),
        "attn.wk": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wv": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wo": Tensor(rng.standard_normal((cfg.n_heads * hs, d))),
    }
    out = gqa_attention(Tensor(x), weights, np.ones((1, 1), dtype=bool), cfg).numpy()
    # softmax over a single key is exactly 1, so output = V row through wo
    v = (x @ weights["attn.wv"].numpy()).reshape(1, cfg.n_kv_heads, hs)
    v_full = np.repeat(v, cfg.group_size, axis=1).reshape(1, cfg.n_heads * hs)
    np.testing.assert_allclose(out, v_full @ weights["attn.wo"].numpy(), atol=1e-9)


def test_gqa_masked_weights_are_zero():
    cfg = toy_config()
    rng = np.random.default_rng(6)
    t_len, d, hs = 5, cfg.d_model, cfg.head_size
    x = Tensor(rng.standard_normal((t_len, d)))
    weights = {
        "attn.wq": Tensor(rng.standard_normal((d, cfg.n_heads * hs))),
        "attn.wk": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wv": Tensor(rng.standard_normal((d, cfg.n_kv_heads * hs))),
        "attn.wo": Tensor(rng.standard_normal((cfg.n_heads * hs, d))),
    }
    # recompute the attention weights the way gqa_attention does
    mask = np.tril(np.ones((t_len, t_len), dtype=bool))
    q = (x.numpy() @ weights["attn.wq"].numpy()).reshape(t_len, 2, hs).transpose(1, 0, 2)
    k = (x.numpy() @ weights["attn.wk"].numpy()).reshape(t_len, 1, hs).transpose(1, 0, 2)
    scores = (q.reshape(1, 2, t_len, hs) @ k.reshape(1, 1, t_len, hs).transpose(0, 1, 3, 2)) / math.sqrt(hs)
    scores = np.where(mask, scores, -1e30)
    w = np.exp(scores - scores.max(-1, keepdims=True))
    w = w / w.sum(-1, keepdims=True)
    assert np.all(w[..., ~mask] < 1e-12)


def test_gqa_rejects_future_mask():
    cfg = toy_config()
    x = Tensor(np.zeros((3, cfg.d_model)))
    weights = {
        "attn.wq": Tensor(np.zeros((cfg.d_model, cfg.n_heads * cfg.head_size))),
        "attn.wk": Tensor(np.zeros((cfg.d_model, cfg.n_kv_heads * cfg.head_size))),
        "attn.wv": Tensor(np.zeros((cfg.d_model, cfg.n_kv_heads * cfg.head_size))),
        "attn.wo": Tensor(np.zeros((cfg.n_heads * cfg.head_size, cfg.d_model))),
    }
    bad = np.ones((3, 3), dtype=bool)  # allows j > i
    with pytest.raises(ValueError):
        gqa_attention(x, weights, bad, cfg)
    with pytest.raises(T.ShapeError):
        gqa_attention(x, weights, np.tril(np.ones((4, 4), dtype=bool)), cfg)


def test_gqa_needs_one_mask_and_table_per_bucket():
    cfg = toy_config()
    rng = np.random.default_rng(7)
    block = T.RowBlock([3, 2, 3])
    x = Tensor(rng.standard_normal((8, cfg.d_model)))
    weights = {f"attn.w{n}": Tensor(rng.standard_normal(shape)) for n, shape in (
        ("q", (cfg.d_model, cfg.n_heads * cfg.head_size)), ("k", (cfg.d_model, cfg.n_kv_heads * cfg.head_size)),
        ("v", (cfg.d_model, cfg.n_kv_heads * cfg.head_size)), ("o", (cfg.n_heads * cfg.head_size, cfg.d_model)))}
    masks = [np.tril(np.ones((n, n), dtype=bool)) for n in (2, 3)]
    gqa_attention(x, weights, masks, cfg, [None, None], block)
    for mask, tables in ((masks[1:], [None, None]), (masks, [None])):
        with pytest.raises(T.ShapeError, match="2 buckets"):
            gqa_attention(x, weights, mask, cfg, tables, block)


def test_heads_divisibility_enforced():
    with pytest.raises(ValueError):
        toy_config(n_heads=3, n_kv_heads=2)


# -- forward ---------------------------------------------------------------------


def test_forward_logits_shape_and_range_check():
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(0, "init"))
    logits = forward(ckpt, [1, 2, 3, 4])
    assert logits.shape == (4, cfg.vocab_size)
    with pytest.raises(ValueError):
        forward(ckpt, [0, cfg.vocab_size])


def test_forward_zero_weights_zero_logits():
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(0, "init"))
    for name, p in ckpt.params.items():
        ckpt.params[name] = Tensor(np.zeros_like(p.data))
    logits = forward(ckpt, [1, 2, 3])
    np.testing.assert_allclose(logits.numpy(), 0.0)


def test_forward_causality():
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(1, "init"), dtype=np.float64)
    base = forward(ckpt, [1, 2, 3, 4, 5, 6]).numpy()
    for t in range(6):
        toks = [1, 2, 3, 4, 5, 6]
        toks[t] = (toks[t] + 3) % cfg.vocab_size
        diff = np.abs(forward(ckpt, toks).numpy() - base).max(axis=1)
        assert np.all(diff[:t] == 0.0), f"perturbing token {t} leaked backward"
        assert diff[t] > 0.0


def test_forward_segment_isolation():
    """Packed segments get identical logits to separate forward passes."""
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(2, "init"), dtype=np.float64)
    a, b = [1, 2, 3], [4, 5]
    packed_logits = forward(
        ckpt,
        a + b,
        segment_ids=[0, 0, 0, 1, 1],
        positions=[0, 1, 2, 0, 1],
    ).numpy()
    la = forward(ckpt, a).numpy()
    lb = forward(ckpt, b).numpy()
    np.testing.assert_allclose(packed_logits[:3], la, atol=1e-9)
    np.testing.assert_allclose(packed_logits[3:], lb, atol=1e-9)


def test_param_count_matches_shapes():
    for cfg in (toy_config(), toy_config(n_layers=3, d_ff=12), ModelConfig()):
        shapes = expected_param_shapes(cfg)
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert param_count(cfg) == total


def test_production_config_is_11b():
    assert abs(param_count(ModelConfig()) / 1e9 - 11.2) < 0.2


def test_full_model_gradient_check():
    """End-to-end gradient vs finite differences on total cross-entropy."""
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(3, "init"), dtype=np.float64)
    tokens = np.array([1, 5, 2, 9, 4])
    targets = np.array([5, 2, 9, 4, 7])
    onehot = np.eye(cfg.vocab_size, dtype=np.float64)[targets]

    def loss(params):
        logits = forward(Checkpoint(config=cfg, params=params), tokens)
        return -(logits.log_softmax(-1) * onehot).sum()

    err = T.gradient_check(loss, ckpt.params)
    assert err < 1e-3, f"full-model gradient error {err:.2e}"


# -- a group of sequences in one pass ----------------------------------------------


def reference_forward(ckpt, tokens, segment_ids=None, positions=None):
    """The per-sequence model composed from plain tape ops: flat matmuls, a
    broadcast gain product and one embedding scatter. A group's pass must
    match this, run once per sequence, bit for bit."""
    cfg, p = ckpt.config, ckpt.params
    t_len, hs, nh, nkv = len(tokens), cfg.head_size, cfg.n_heads, cfg.n_kv_heads
    mask = build_attention_mask(np.zeros(t_len, dtype=np.int64) if segment_ids is None else segment_ids)
    tables = rope_frequencies(hs, cfg.rope_theta, np.arange(t_len) if positions is None else positions)

    def norm(x, g):
        return x / ((x * x).mean(axis=-1, keepdims=True) + cfg.rmsnorm_eps).sqrt() * g

    x = T.embedding(p["embed.tok"], np.asarray(tokens))
    for i in range(cfg.n_layers):
        w = {k: p[f"layers.{i}.{k}"] for k in ("attn_norm.g", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
                                               "ffn_norm.g", "ffn.w_gate", "ffn.w_up", "ffn.w_down")}
        h = norm(x, w["attn_norm.g"])
        q = (h @ w["attn.wq"]).reshape(t_len, nh, hs).transpose(1, 0, 2)
        k = (h @ w["attn.wk"]).reshape(t_len, nkv, hs).transpose(1, 0, 2)
        v = (h @ w["attn.wv"]).reshape(t_len, nkv, hs).transpose(1, 0, 2)
        q, k = apply_rope(q, k, tables)
        q = q.reshape(nkv, cfg.group_size, t_len, hs)
        scores = (q @ k.reshape(nkv, 1, t_len, hs).transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(hs))
        scores = T.where(mask, scores, Tensor(np.full_like(scores.data, neg_inf_for(scores.dtype))))
        out = scores.softmax(axis=-1) @ v.reshape(nkv, 1, t_len, hs)
        x = x + out.transpose(2, 0, 1, 3).reshape(t_len, nh * hs) @ w["attn.wo"]
        h = norm(x, w["ffn_norm.g"])
        x = x + ((h @ w["ffn.w_gate"]).silu() * (h @ w["ffn.w_up"])) @ w["ffn.w_down"]
    return norm(x, p["final_norm.g"]) @ p["lm_head"]


def grpo_loss(per_token, lengths):
    """grpo_objective over consecutive runs of per-token log-probs."""
    starts = np.cumsum([0] + lengths[:-1])
    lp = [T.narrow(per_token, 0, int(a), n) for a, n in zip(starts, lengths)]
    return grpo_objective(GrpoGroup(
        logp_policy=lp, logp_old=[t.data - 0.3 for t in lp], logp_ref=[t.data + 0.1 for t in lp],
        rewards=np.linspace(0.0, 1.0, len(lp)),
    ))


def taped(build, ckpt):
    """(logits, {parameter name: gradient}) of build(), which returns the
    logits and a scalar loss built from them."""
    with Graph() as g:
        logits, loss = build()
    g.backward(loss)
    return logits.numpy(), {n: g.grad(p) for n, p in ckpt.params.items()}


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


# the e2e toy shape: one flat (rows, 32) @ (32, 264) lm_head gemm rounds
# some rows differently from a pass per sequence once rows reach 17
GROUP_CONFIG = dict(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64, vocab_size=264)
GROUP_LENGTHS = {
    "equal": [12] * 8,
    "mixed": [3, 12, 7, 12, 1, 5, 12, 7],
    "distinct": [9, 2, 14, 6, 1, 11, 4, 17],
}


@pytest.mark.parametrize("lengths", sorted(GROUP_LENGTHS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_group_pass_is_bit_identical_to_separate_passes(lengths, dtype):
    lengths = GROUP_LENGTHS[lengths]
    cfg = toy_config(**GROUP_CONFIG)
    ckpt = init_params(cfg, named_rng(0, "group"), dtype=dtype)
    rng = named_rng(1, "group-tokens")
    seqs = [rng.integers(0, cfg.vocab_size, n) for n in lengths]
    targets = [rng.integers(0, cfg.vocab_size, n) for n in lengths]

    def group():
        logits = forward(ckpt, seqs)
        return logits, grpo_loss(T.sum_(T.target_logprobs(logits, np.concatenate(targets)), axis=1), lengths)

    def separate():
        logits = [reference_forward(ckpt, s) for s in seqs]
        per_token = [T.sum_(T.target_logprobs(lg, t), axis=1) for lg, t in zip(logits, targets)]
        return T.concat(logits, axis=0), grpo_loss(T.concat(per_token, axis=0), lengths)

    got, got_grads = taped(group, ckpt)
    want, want_grads = taped(separate, ckpt)
    assert_same_bits(got, want)
    for name in ckpt.params:
        assert_same_bits(got_grads[name], want_grads[name])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_row_is_a_group_of_one(dtype):
    cfg = toy_config(**GROUP_CONFIG)
    ckpt = init_params(cfg, named_rng(2, "group"), dtype=dtype)
    lengths = [5, 9, 3, 7]
    tokens = named_rng(3, "packed-tokens").integers(0, cfg.vocab_size, sum(lengths))
    segment_ids = np.repeat(np.arange(len(lengths)), lengths)
    positions = np.concatenate([np.arange(n) for n in lengths])
    targets = np.roll(tokens, -1)

    def run(model):
        def build():
            logits = model(ckpt, tokens, segment_ids, positions)
            return logits, grpo_loss(T.sum_(T.target_logprobs(logits, targets), axis=1), lengths)
        return build

    got, got_grads = taped(run(forward), ckpt)
    want, want_grads = taped(run(reference_forward), ckpt)
    assert_same_bits(got, want)
    for name in ckpt.params:
        assert_same_bits(got_grads[name], want_grads[name])


def test_equal_length_group_records_a_third_of_the_nodes():
    cfg = toy_config(**GROUP_CONFIG)
    ckpt = init_params(cfg, named_rng(4, "group"))
    seqs = [named_rng(5, f"seq{i}").integers(0, cfg.vocab_size, 12) for i in range(8)]

    def nodes(build):
        with Graph() as g:
            build()
        return len(g.nodes)

    grouped = nodes(lambda: forward(ckpt, seqs))
    separate = nodes(lambda: [forward(ckpt, s) for s in seqs])
    assert grouped * 3 <= separate, (grouped, separate)


def test_group_logits_follow_the_given_order():
    cfg = toy_config()
    ckpt = init_params(cfg, named_rng(6, "group"), dtype=np.float64)
    seqs = [[1, 2, 3, 4], [5, 6], [7, 8, 9]]
    got = forward(ckpt, seqs).numpy()
    want = np.concatenate([forward(ckpt, s).numpy() for s in seqs])
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="out of range"):
        forward(ckpt, [[1, 2], [cfg.vocab_size]])


@pytest.mark.parametrize("call,message", [
    (lambda ck: forward(ck, [[1, 2, 3], [4]], segment_ids=[[0], [0, 1, 2]]),
     "sequence 0 has 3 tokens but 1 segment_ids"),
    (lambda ck: forward(ck, [[1, 2, 3], [4]], positions=[[0], [5, 6, 7]]),
     "sequence 0 has 3 tokens but 1 positions"),
    (lambda ck: forward(ck, [1, 2, 3], positions=[0, 1, 2, 3, 4]), "sequence 0 has 3 tokens but 5 positions"),
    (lambda ck: forward(ck, [1, 2, 3], segment_ids=[0, 0]), "sequence 0 has 3 tokens but 2 segment_ids"),
    (lambda ck: forward(ck, [[1, 2], []]), "sequence 1 is empty"),
    (lambda ck: forward(ck, []), "sequence 0 is empty"),
    (lambda ck: decode.prefill(ck, []), "prompt is empty"),
    (lambda ck: forward(ck, np.array([[1, 2], [3, 4]])), r"1-D sequence, got shape \(2, 2\)"),
], ids=["segments", "positions", "extra-positions", "short-segments", "empty-in-group", "empty", "empty-prompt",
        "2-d-ids"])
def test_per_sequence_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call(init_params(toy_config(), named_rng(7, "group")))


@pytest.mark.parametrize("call", [
    lambda ck: check_token_ids([1.5, 2], 11),
    lambda ck: check_token_ids([True], 11),
    lambda ck: check_token_ids(np.array([1.0, 2.0]), 11),
    lambda ck: check_token_ids(["1"], 11),
    lambda ck: forward(ck, [1, 2.5]),
    lambda ck: decode.prefill(ck, [2.0]),
    lambda ck: decode.extend(ck, [[1.5]], decode.KVCache(keys=[], values=[])),
    lambda ck: decode.extend(ck, [[False]], decode.prefill(ck, [1])[1]),
], ids=["float", "bool", "float-array", "str", "forward", "prefill", "extend", "step"])
def test_non_integer_token_ids_are_rejected(call):
    # ids were once cast: 1.5 scored as id 1 and True as id 1
    with pytest.raises(ValueError, match="token ids must be integers"):
        call(init_params(toy_config(), named_rng(7, "group")))


@pytest.mark.parametrize("ids", [[5, True], (False, 3), [2, 3, True]], ids=["list", "tuple", "last"])
def test_token_ids_mixing_ints_and_bools_are_rejected(ids):
    # numpy gives [5, True] an int64 dtype, so it was once scored as ids 5 and 1
    with pytest.raises(ValueError, match="token ids must be integers, got bool values"):
        check_token_ids(ids, 11)


def test_integer_token_ids_of_any_width_are_kept():
    for ids in ([1, 2], np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.int32)):
        out = check_token_ids(ids, 11)
        assert out.dtype == np.int64 and out.tolist() == [1, 2]
    assert check_token_ids([], 11).shape == (0,)  # an empty list is float64 to numpy; its errors stay the caller's


# -- attention mask helper ---------------------------------------------------------


def test_build_attention_mask():
    mask = build_attention_mask([0, 0, 1, 1, 1])
    expected = np.array([
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 1, 1, 1],
    ], dtype=bool)
    np.testing.assert_array_equal(mask, expected)


# -- checkpoint validation ----------------------------------------------------------


def test_validate_checkpoint_accepts_fresh_init():
    ckpt = init_params(toy_config(), named_rng(4, "init"))
    validate_checkpoint(ckpt)


def test_validate_checkpoint_missing_and_extra():
    ckpt = init_params(toy_config(), named_rng(5, "init"))
    del ckpt.params["final_norm.g"]
    with pytest.raises(ValueError, match="missing"):
        validate_checkpoint(ckpt)
    ckpt = init_params(toy_config(), named_rng(5, "init"))
    ckpt.params["stray"] = Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="extra"):
        validate_checkpoint(ckpt)


def test_validate_checkpoint_rejects_nonfinite():
    ckpt = init_params(toy_config(), named_rng(6, "init"))
    ckpt.params["embed.tok"].data[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_checkpoint(ckpt)
