"""Depth up-scaling map, merging identities, and checkpoint file round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge.checkpoint import load_checkpoint, save_checkpoint
from forge.model import ModelConfig, forward, init_params, param_count, validate_checkpoint
from forge.rng import named_rng
from forge.upscale import (
    UpscaleSpec,
    depth_upscale,
    layer_map,
    merge_checkpoints,
    merge_combinations,
    rank_checkpoints,
)


def toy_config(n_layers=4):
    return ModelConfig(
        n_layers=n_layers, d_model=8, n_heads=2, n_kv_heads=1, head_size=4,
        d_ff=16, vocab_size=11, rope_theta=10000.0, native_ctx=32,
        extended_ctx=128, rmsnorm_eps=1e-6,
    )


# -- layer map -------------------------------------------------------------------


def test_production_map():
    spec = UpscaleSpec(n=32, m=7)
    assert spec.s == 50
    assert layer_map(spec) == list(range(0, 25)) + list(range(7, 32))


def test_full_duplication():
    spec = UpscaleSpec(n=3, m=0)
    assert spec.s == 6
    assert layer_map(spec) == [0, 1, 2, 0, 1, 2]


def test_small_map():
    assert layer_map(UpscaleSpec(n=4, m=1)) == [0, 1, 2, 1, 2, 3]


def test_spec_bounds():
    with pytest.raises(ValueError):
        UpscaleSpec(n=4, m=4)
    with pytest.raises(ValueError):
        UpscaleSpec(n=4, m=-1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_map_property(n, data):
    m = data.draw(st.integers(min_value=0, max_value=n - 1))
    spec = UpscaleSpec(n=n, m=m)
    mapping = layer_map(spec)
    assert len(mapping) == 2 * n - 2 * m
    for out_idx, src_idx in enumerate(mapping):
        if out_idx < n - m:
            assert src_idx == out_idx
        else:
            assert src_idx == out_idx - (n - 2 * m)


# -- depth_upscale on real checkpoints ----------------------------------------------


def test_upscale_checkpoint_structure_and_values():
    ckpt = init_params(toy_config(4), named_rng(0, "init"))
    out = depth_upscale(ckpt, UpscaleSpec(n=4, m=1))
    assert out.config.n_layers == 6
    validate_checkpoint(out)
    assert param_count(out.config) == sum(p.size for p in out.params.values())
    for out_idx, src_idx in enumerate([0, 1, 2, 1, 2, 3]):
        np.testing.assert_array_equal(
            out.params[f"layers.{out_idx}.attn.wq"].data,
            ckpt.params[f"layers.{src_idx}.attn.wq"].data,
        )
    np.testing.assert_array_equal(out.params["embed.tok"].data, ckpt.params["embed.tok"].data)


def test_upscale_output_runs_forward():
    ckpt = init_params(toy_config(4), named_rng(1, "init"))
    out = depth_upscale(ckpt, UpscaleSpec(n=4, m=1))
    logits = forward(out, [1, 2, 3])
    assert logits.shape == (3, 11)
    assert np.all(np.isfinite(logits.numpy()))


def test_upscale_copies_are_independent():
    ckpt = init_params(toy_config(4), named_rng(2, "init"))
    out = depth_upscale(ckpt, UpscaleSpec(n=4, m=1))
    # output layers 1 and 3 both come from source layer 1
    out.params["layers.1.attn.wq"].data[0, 0] += 1.0
    assert out.params["layers.3.attn.wq"].data[0, 0] == ckpt.params["layers.1.attn.wq"].data[0, 0]


def test_upscale_layer_count_mismatch():
    ckpt = init_params(toy_config(4), named_rng(3, "init"))
    with pytest.raises(ValueError):
        depth_upscale(ckpt, UpscaleSpec(n=5, m=1))


# -- merging -------------------------------------------------------------------------


def test_merge_idempotent():
    c = init_params(toy_config(2), named_rng(4, "init"))
    merged = merge_checkpoints([c, c], [1.0, 1.0])
    for name in c.params:
        np.testing.assert_array_equal(merged.params[name].data, c.params[name].data)


def test_merge_linearity():
    c = init_params(toy_config(2), named_rng(5, "init"))
    zero = init_params(toy_config(2), named_rng(5, "init"))
    double = init_params(toy_config(2), named_rng(5, "init"))
    for name in c.params:
        zero.params[name].data[...] = 0.0
        double.params[name].data[...] = 2.0 * c.params[name].data
    merged = merge_checkpoints([zero, double], [1.0, 1.0])
    for name in c.params:
        np.testing.assert_allclose(merged.params[name].data, c.params[name].data, atol=1e-7)


def test_merge_weighted_vs_scalar_loop():
    ckpts = [init_params(toy_config(2), named_rng(10 + i, "init")) for i in range(3)]
    w = [1.0, 2.0, 3.0]
    merged = merge_checkpoints(ckpts, w)
    name = "layers.0.ffn.w_gate"
    flat = [c.params[name].data.reshape(-1) for c in ckpts]
    for j in range(flat[0].size):
        expected = sum(w[i] * float(flat[i][j]) for i in range(3)) / sum(w)
        assert abs(float(merged.params[name].data.reshape(-1)[j]) - expected) < 1e-6


def test_merge_permutation_invariant():
    ckpts = [init_params(toy_config(2), named_rng(20 + i, "init")) for i in range(3)]
    w = [1.0, 2.0, 3.0]
    a = merge_checkpoints(ckpts, w)
    b = merge_checkpoints([ckpts[2], ckpts[0], ckpts[1]], [w[2], w[0], w[1]])
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_merge_one_hot_selects_exactly():
    ckpts = [init_params(toy_config(2), named_rng(30 + i, "init")) for i in range(2)]
    merged = merge_checkpoints(ckpts, [0.0, 1.0])
    for name in merged.params:
        np.testing.assert_array_equal(merged.params[name].data, ckpts[1].params[name].data)


def test_merge_errors():
    a = init_params(toy_config(2), named_rng(40, "init"))
    b = init_params(toy_config(3), named_rng(41, "init"))
    with pytest.raises(ValueError):
        merge_checkpoints([a], [1.0])
    with pytest.raises(ValueError):
        merge_checkpoints([a, b], [1.0, 1.0])
    a2 = init_params(toy_config(2), named_rng(42, "init"))
    with pytest.raises(ValueError):
        merge_checkpoints([a, a2], [0.0, 0.0])
    with pytest.raises(ValueError):
        merge_checkpoints([a, a2], [1.0, -1.0])


def test_rank_and_combinations():
    scores = {"a": 0.5, "b": 0.9, "c": 0.9}
    assert rank_checkpoints(scores) == ["b", "c", "a"]
    combos = merge_combinations(["a", "b", "c"], max_size=3)
    assert ("a", "b") in combos and ("a", "b", "c") in combos
    assert all(len(c) >= 2 for c in combos)


# -- checkpoint file format -----------------------------------------------------------


def test_checkpoint_roundtrip_bitexact(tmp_path):
    ckpt = init_params(toy_config(2), named_rng(50, "init"))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    assert loaded.config == ckpt.config
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name].data, ckpt.params[name].data)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(p)


def test_checkpoint_load_rejects_truncated(tmp_path):
    ckpt = init_params(toy_config(2), named_rng(51, "init"))
    p = tmp_path / "t.ckpt"
    save_checkpoint(ckpt, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(p)


@pytest.mark.parametrize("config", [
    lambda d: [],
    lambda d: {**d, "n_experts": 4},
    lambda d: {**d, "n_heads": str(d["n_heads"])},
    lambda d: {**d, "n_layers": float(d["n_layers"])},
    lambda d: {**d, "n_kv_heads": 0},
], ids=["not-an-object", "unknown-field", "mistyped-field", "float-for-int", "zero-kv-heads"])
def test_checkpoint_load_rejects_bad_config_line(tmp_path, config):
    ckpt = init_params(toy_config(2), named_rng(53, "init"))
    p = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, p)
    magic, _, rest = p.read_bytes().split(b"\n", 2)
    line = json.dumps(config(ckpt.config.to_dict())).encode()
    p.write_bytes(magic + b"\nconfig " + line + b"\n" + rest)
    with pytest.raises(ValueError, match=r"c\.ckpt"):
        load_checkpoint(p)


def test_upscaled_checkpoint_roundtrips(tmp_path):
    ckpt = init_params(toy_config(4), named_rng(52, "init"))
    out = depth_upscale(ckpt, UpscaleSpec(n=4, m=1))
    p = tmp_path / "up.ckpt"
    save_checkpoint(out, p)
    again = load_checkpoint(p)
    assert again.config.n_layers == 6
    for name in out.params:
        np.testing.assert_array_equal(again.params[name].data, out.params[name].data)
