"""Depth up-scaling map, merging identities, and checkpoint file round trips."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge.checkpoint import CHECKPOINT_FORMAT_VERSION, load_checkpoint, save_checkpoint
from forge.model import Checkpoint, ModelConfig, forward, init_params, param_count, validate_checkpoint
from forge.rng import named_rng
from forge.tensor import Tensor
from forge.upscale import (
    UpscaleSpec,
    depth_upscale,
    layer_map,
    merge_checkpoints,
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


@pytest.mark.parametrize("edit", [
    lambda head: [b"forge-checkpoint "] + head[1:],  # no version: once an IndexError
    lambda head: [b"forge-checkpoint 2"] + head[1:],
    lambda head: head[:2] + [head[2] + b" extra"] + head[3:],
    lambda head: head[:2] + [head[2].replace(b" 0", b" zero")] + head[3:],
    lambda head: head[:2] + [b"tensor embed.tok -11,-8 0"] + head[3:],
    lambda head: head[:2] + [b"tensor \xff 1 0"] + head[3:],
], ids=["no-version", "version-2", "five-fields", "non-integer-offset", "negative-dims", "non-utf8"])
def test_checkpoint_load_rejects_malformed_header_naming_the_path(tmp_path, edit):
    p = tmp_path / "h.ckpt"
    save_checkpoint(init_params(toy_config(2), named_rng(54, "init")), p)
    head, payload = p.read_bytes().split(b"payload\n", 1)
    p.write_bytes(b"\n".join(edit(head.split(b"\n")[:-1])) + b"\npayload\n" + payload)
    with pytest.raises(ValueError, match=r"h\.ckpt"):
        load_checkpoint(p)


MIB = 1 << 20


def wide_config():
    """A 6.5 MiB payload whose largest tensor (the embedding) is 1 MiB."""
    return ModelConfig(
        n_layers=2, d_model=256, n_heads=8, n_kv_heads=4, head_size=32,
        d_ff=512, vocab_size=1024, rope_theta=10000.0, native_ctx=64,
        extended_ctx=256, rmsnorm_eps=1e-6,
    )


def concatenated_layout(ckpt) -> bytes:
    """The file as first written: the header, then every tensor's float32
    ``tobytes()`` concatenated in directory order."""
    names = sorted(ckpt.params)
    blobs = [np.ascontiguousarray(ckpt.params[n].data, dtype=np.float32).tobytes() for n in names]
    lines = [f"forge-checkpoint {CHECKPOINT_FORMAT_VERSION}",
             f"config {json.dumps(ckpt.config.to_dict(), sort_keys=True)}"]
    offset = 0
    for name, blob in zip(names, blobs):
        lines.append(f"tensor {name} {','.join(str(d) for d in ckpt.params[name].shape)} {offset}")
        offset += len(blob)
    return ("\n".join(lines) + "\npayload\n").encode() + b"".join(blobs)


def traced_peak(fn) -> int:
    """tracemalloc's peak bytes while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["float32", "float64", "non-contiguous"])
def test_checkpoint_save_writes_the_concatenated_layout(tmp_path, layout):
    dtype = np.float64 if layout == "float64" else np.float32
    ckpt = init_params(toy_config(2), named_rng(56, "init"), dtype=dtype)
    if layout == "non-contiguous":  # every other element of a stacked copy: a strided view
        params = {n: Tensor(np.stack([t.data, t.data], axis=-1)[..., 0]) for n, t in ckpt.params.items()}
        assert not any(t.data.flags.c_contiguous for t in params.values())
        ckpt = Checkpoint(config=ckpt.config, params=params)
    p = tmp_path / "s.ckpt"
    save_checkpoint(ckpt, p)
    assert p.read_bytes() == concatenated_layout(ckpt)


@pytest.mark.parametrize("damage", ["no-marker", "inside-first-tensor", "inside-last-tensor", "trailing"])
def test_checkpoint_load_rejects_a_damaged_payload_naming_the_path(tmp_path, damage):
    ckpt = init_params(toy_config(2), named_rng(57, "init"))
    p = tmp_path / "d.ckpt"
    save_checkpoint(ckpt, p)
    head, payload = p.read_bytes().split(b"payload\n", 1)
    names = sorted(ckpt.params)
    blob, message = {
        "no-marker": (head, "missing payload marker"),
        "inside-first-tensor": (head + b"payload\n" + payload[: ckpt.params[names[0]].data.nbytes // 2],
                                f"payload truncated at tensor {names[0]}"),
        "inside-last-tensor": (head + b"payload\n" + payload[:-4], f"payload truncated at tensor {names[-1]}"),
        "trailing": (head + b"payload\n" + payload + bytes(4), "4 trailing payload bytes"),
    }[damage]
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        load_checkpoint(p)


def test_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    p = tmp_path / "w.ckpt"
    save_checkpoint(init_params(wide_config(), named_rng(58, "init")), p)
    payload = len(p.read_bytes().split(b"payload\n", 1)[1])
    assert payload > 6 * MIB
    assert traced_peak(lambda: load_checkpoint(p)) <= payload + MIB


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_save_holds_at_most_one_tensor_copy(tmp_path, dtype):
    ckpt = init_params(wide_config(), named_rng(58, "init"), dtype=dtype)
    largest = max(t.data.size for t in ckpt.params.values()) * 4
    assert traced_peak(lambda: save_checkpoint(ckpt, tmp_path / "w.ckpt")) <= largest + MIB


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_merge_rejects_weights_whose_sums_overflow():
    c = init_params(toy_config(2), named_rng(55, "init"))
    with pytest.raises(ValueError, match="non-finite"):
        merge_checkpoints([c, c], [1e308, 1e308])


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
