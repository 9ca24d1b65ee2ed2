"""Cached decoding against the full-recompute reference: prefill logits are
bit-identical to ``forward``, cached steps match it at a stated tolerance,
and sampling and greedy generation draw the same tokens as a loop that
re-runs ``forward`` over the whole prefix for every token."""

from pathlib import Path

import numpy as np
import pytest

from forge import decode
from forge.datapipe.tokenizer import allocate_chat_specials
from forge.evalharness import generate_greedy
from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng
from forge.train import loops
from forge.train.loops import TrainSettings, load_rl_dataset, sample_response, train_grpo
from forge.train.schedule import ScheduleSpec

TOK = allocate_chat_specials([], n_reserved=8)
RL_FIXTURE = Path(__file__).parent / "fixtures" / "rl_math.jsonl"

SHAPES = {
    # the training-loop tests' toy model
    "toy": dict(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64),
    # four query heads per KV head
    "gqa": dict(n_layers=3, d_model=64, n_heads=8, n_kv_heads=2, head_size=8, d_ff=128),
}
# float32 step logits differ from forward's last row by BLAS rounding only
# (a one-row matmul takes another kernel); float64 shrinks that to ~1e-15
STEP_ATOL = {np.float32: 1e-5, np.float64: 1e-12}


def make_ckpt(shape="toy", dtype=np.float32, seed=7, scale=1.0):
    """scale multiplies every weight but the norm gains. At init scale the
    logits are so flat that a wrong position or cache entry rarely changes
    a drawn token; at 5 it changes nearly every sequence."""
    cfg = ModelConfig(vocab_size=TOK.vocab_size, rope_theta=1e4, native_ctx=128,
                      extended_ctx=512, rmsnorm_eps=1e-6, **SHAPES[shape])
    ckpt = init_params(cfg, named_rng(seed, "decode-test"), dtype=dtype)
    for name, p in ckpt.params.items():
        if not name.endswith(".g"):
            p.data *= dtype(scale)
    return ckpt


def random_tokens(n, name="tokens"):
    return named_rng(0, name).integers(0, TOK.base_size, n).tolist()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prefill_is_bit_identical_to_forward(shape, dtype):
    ckpt = make_ckpt(shape, dtype)
    for n in (1, 2, 17, 40):
        tokens = random_tokens(n, f"prefill{n}")
        logits, cache = decode.prefill(ckpt, tokens)
        want = forward(ckpt, tokens).numpy()
        assert logits.dtype == want.dtype
        assert np.array_equal(logits, want)
        assert len(cache.keys) == len(cache.values) == ckpt.config.n_layers
        assert cache.length == n


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_steps_match_full_recompute(shape, dtype):
    ckpt = make_ckpt(shape, dtype)
    tokens = random_tokens(30, "steps")
    _, cache = decode.prefill(ckpt, tokens[:5])
    for t in range(5, len(tokens)):
        logits = decode.step(ckpt, tokens[t], cache)
        assert cache.length == t + 1
        want = forward(ckpt, tokens[: t + 1]).numpy()[-1]
        assert logits.dtype == want.dtype
        np.testing.assert_allclose(logits, want, rtol=0, atol=STEP_ATOL[dtype])


def reference_sample(ckpt, prompt_ids, rng, max_tokens, temperature, stop_id, suppress=()):
    """The full-recompute sampler: one forward over the whole prefix per token."""
    seq, out = list(prompt_ids), []
    for _ in range(max_tokens):
        logits = forward(ckpt, seq).numpy()[-1].astype(np.float64) / temperature
        if suppress:
            logits[list(suppress)] = -np.inf
        p = np.exp(logits - logits.max())
        p /= p.sum()
        nxt = int(rng.choice(len(p), p=p))
        out.append(nxt)
        seq.append(nxt)
        if nxt == stop_id:
            break
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sample_response_matches_full_recompute(seed):
    ckpt = make_ckpt(scale=5.0)
    stop = TOK.special_id("<|end|>")
    suppress = [i for i in range(TOK.base_size, TOK.vocab_size) if i != stop]
    prompt = random_tokens(6, f"prompt{seed}")
    name = f"decode-test/seed{seed}"
    got = sample_response(ckpt, prompt, named_rng(seed, name), 24, 0.7, stop, suppress)
    want = reference_sample(ckpt, prompt, named_rng(seed, name), 24, 0.7, stop, suppress)
    assert got == want
    assert 1 <= len(got) <= 24


def test_sample_response_keeps_the_stop_token():
    # a stop id that is every draw's only option ends the response at once
    ckpt = make_ckpt()
    stop = TOK.special_id("<|end|>")
    suppress = [i for i in range(TOK.vocab_size) if i != stop]
    assert sample_response(ckpt, [1, 2], named_rng(0, "s"), 8, 1.0, stop, suppress) == [stop]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_matches_full_recompute(seed):
    ckpt = make_ckpt("gqa", seed=seed, scale=5.0)
    prompt = random_tokens(5, f"greedy{seed}")
    seq = list(prompt)
    for _ in range(12):
        seq.append(int(np.argmax(forward(ckpt, seq).numpy()[-1])))
    assert generate_greedy(ckpt, prompt, 12) == seq[len(prompt):]
    # a stop token ends the output and is dropped from it
    first = seq[len(prompt)]
    assert generate_greedy(ckpt, prompt, 12, stop=[first]) == []


def test_out_of_range_ids_raise_value_error():
    ckpt = make_ckpt()
    vocab = TOK.vocab_size
    for bad in ([1, vocab], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            decode.prefill(ckpt, bad)
        with pytest.raises(ValueError, match="out of range"):
            sample_response(ckpt, bad, named_rng(0, "r"), 4, 1.0, 0)
        with pytest.raises(ValueError, match="out of range"):
            generate_greedy(ckpt, bad, 4)
    _, cache = decode.prefill(ckpt, [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        decode.step(ckpt, vocab, cache)
    assert cache.length == 2


def test_train_grpo_samples_once_per_rollout(monkeypatch):
    calls = []
    original = loops.sample_response

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(loops, "sample_response", counting)
    steps, prompts_per_step, accum, group_size = 2, 2, 2, 3
    policy = make_ckpt()
    ref = make_ckpt()
    spec = ScheduleSpec(peak_lr=1e-3, min_lr=1e-3, warmup_steps=0, total_steps=steps, shape="constant")
    train_grpo(
        policy, ref, load_rl_dataset(RL_FIXTURE)[:3], TOK,
        TrainSettings(spec=spec, steps=steps, accum=accum),
        group_size=group_size, max_tokens=4, prompts_per_step=prompts_per_step, seed=3,
    )
    assert len(calls) == steps * prompts_per_step * accum * group_size
    # the benchmark reads the stop id as the sixth positional argument
    assert all(len(args) >= 6 and args[5] == TOK.special_id("<|end|>") for args in calls)


def test_train_grpo_prefills_each_prompt_once(monkeypatch):
    from forge import decode as decode_module

    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(loops, "prefill", counting(loops.prefill))
    monkeypatch.setattr(decode_module, "prefill", counting(decode_module.prefill))
    steps, prompts_per_step, accum = 2, 2, 2
    spec = ScheduleSpec(peak_lr=1e-3, min_lr=1e-3, warmup_steps=0, total_steps=steps, shape="constant")
    train_grpo(
        make_ckpt(), make_ckpt(), load_rl_dataset(RL_FIXTURE)[:3], TOK,
        TrainSettings(spec=spec, steps=steps, accum=accum),
        group_size=3, max_tokens=4, prompts_per_step=prompts_per_step, seed=3,
    )
    assert len(calls) == steps * accum * prompts_per_step


def test_rollouts_from_one_prefill_match_their_own_prefills():
    ckpt = make_ckpt(scale=5.0)
    prompt = random_tokens(6, "shared-prompt")
    stop = TOK.special_id("<|end|>")
    shared = decode.prefill(ckpt, prompt)
    rng_a, rng_b = named_rng(9, "rollouts"), named_rng(9, "rollouts")
    for _ in range(4):
        from_shared = sample_response(ckpt, prompt, rng_a, 8, 1.0, stop, (), shared)
        assert from_shared == sample_response(ckpt, prompt, rng_b, 8, 1.0, stop)
    assert shared[1].length == len(prompt)
