"""Cached decoding against the full-recompute reference: prefill logits are
bit-identical to ``forward``, cached extends (one token per decoding step,
or a block) match it at a stated tolerance, a batched extend's rows are
bit-identical to single-sequence ones, tape-free log-prob scoring (on
``decode``'s kernel) is bit-identical to the taped pass through
``forward``, and sampling (rollouts of a group in lockstep rounds) and
greedy generation draw the same tokens as a loop that re-runs ``forward``
over the whole prefix for every token."""

import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge import decode
from forge import tensor as T
from forge.datapipe.tokenizer import allocate_chat_specials
from forge.evalharness import generate_greedy
from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng
from forge.train import loops
from forge.train.loops import GroupRollouts, TrainSettings, load_rl_dataset, sample_response, train_grpo
from forge.train.schedule import ScheduleSpec

TOK = allocate_chat_specials([], n_reserved=8)
RL_FIXTURE = Path(__file__).parent / "fixtures" / "rl_math.jsonl"

SHAPES = {
    # the training-loop tests' toy model
    "toy": dict(n_layers=2, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64),
    # four query heads per KV head
    "gqa": dict(n_layers=3, d_model=64, n_heads=8, n_kv_heads=2, head_size=8, d_ff=128),
}
# the benchmark's desk shape (vocabulary 2048), where BLAS may pick other kernels
DESK = dict(n_layers=4, d_model=256, n_heads=8, n_kv_heads=4, head_size=32, d_ff=1024)
# float32 extend logits differ from forward's last rows by BLAS rounding only
# (a one-row matmul takes another kernel); float64 shrinks that to ~1e-15
STEP_ATOL = {np.float32: 1e-5, np.float64: 1e-12}


def make_ckpt(shape="toy", dtype=np.float32, seed=7, scale=1.0):
    """scale multiplies every weight but the norm gains. At init scale the
    logits are so flat that a wrong position or cache entry rarely changes
    a drawn token; at 5 it changes nearly every sequence."""
    dims, vocab = (DESK, 2048) if shape == "desk" else (SHAPES[shape], TOK.vocab_size)
    cfg = ModelConfig(vocab_size=vocab, rope_theta=1e4, native_ctx=128,
                      extended_ctx=512, rmsnorm_eps=1e-6, **dims)
    ckpt = init_params(cfg, named_rng(seed, "decode-test"), dtype=dtype)
    for name, p in ckpt.params.items():
        if not name.endswith(".g"):
            p.data *= dtype(scale)
    return ckpt


def random_tokens(n, name="tokens"):
    return named_rng(0, name).integers(0, TOK.base_size, n).tolist()


@pytest.mark.parametrize("shape", sorted(SHAPES) + ["desk"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prefill_is_bit_identical_to_forward(shape, dtype):
    ckpt = make_ckpt(shape, dtype)
    for n in (1, 2, 17, 40):  # one token sees every key, so extend takes no mask
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
        logits = decode.extend(ckpt, [[tokens[t]]], cache)[0, 0]
        assert cache.length == t + 1
        want = forward(ckpt, tokens[: t + 1]).numpy()[-1]
        assert logits.dtype == want.dtype
        np.testing.assert_allclose(logits, want, rtol=0, atol=STEP_ATOL[dtype])


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_extend_matches_forward_and_prefill(shape, dtype):
    # extend(prefill(a), b): its logits against forward(a + b)'s last rows,
    # its cache against prefill(a + b)'s, both at STEP_ATOL
    ckpt = make_ckpt(shape, dtype)
    for n_a, n_b in ((1, 1), (1, 9), (12, 1), (17, 23)):
        tokens = random_tokens(n_a + n_b, f"extend{n_a}-{n_b}")
        _, cache = decode.prefill(ckpt, tokens[:n_a])
        logits = decode.extend(ckpt, [tokens[n_a:]], cache)
        want = forward(ckpt, tokens).numpy()[n_a:]
        assert logits.shape == (1, n_b, ckpt.config.vocab_size) and logits.dtype == want.dtype
        np.testing.assert_allclose(logits[0], want, rtol=0, atol=STEP_ATOL[dtype])
        _, full = decode.prefill(ckpt, tokens)
        assert cache.length == full.length == n_a + n_b
        for got, ref in zip(cache.keys + cache.values, full.keys + full.values):
            np.testing.assert_allclose(got, ref, rtol=0, atol=STEP_ATOL[dtype])


@pytest.mark.parametrize("shape", ["toy", "desk"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_extend_rows_are_bit_identical_to_single_extends(shape, dtype):
    ckpt = make_ckpt(shape, dtype)
    _, cache = decode.prefill(ckpt, random_tokens(11, "extend-prompt"))
    for t_len in (1, 6):
        feeds = named_rng(t_len, "extend-feeds").integers(0, ckpt.config.vocab_size, (4, t_len))
        batch = cache.take([0] * len(feeds))
        rows = decode.extend(ckpt, feeds, batch)
        for m, feed in enumerate(feeds):
            single = cache.take([0])
            want = decode.extend(ckpt, feed[None], single)
            assert np.array_equal(rows[m], want[0])
            for got, ref in zip(batch.keys + batch.values, single.keys + single.values):
                assert np.array_equal(got[m], ref[0])
    assert cache.length == 11


ONE_ROW_CKPTS = {}


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), rows=st.integers(1, 4), t_len=st.integers(1, 3),
       plen=st.sampled_from([1, 2, 7, 16]), seed=st.integers(0, 2**32 - 1))
def test_extend_on_a_one_row_cache_matches_extend_on_its_copies(dtype, rows, t_len, plen, seed):
    # B rows of tokens behind one cached row broadcast it in the append; the
    # logits and every cache array are those of B copies of the row, and the
    # prefill's own cache, and a bucket_logits pass over it, leave it as it was
    if dtype not in ONE_ROW_CKPTS:
        ONE_ROW_CKPTS[dtype] = make_ckpt("gqa", dtype)
    ckpt = ONE_ROW_CKPTS[dtype]
    rng = np.random.default_rng(seed)
    _, cache = decode.prefill(ckpt, rng.integers(0, ckpt.config.vocab_size, plen))
    before = [a.tobytes() for a in cache.keys + cache.values]
    feeds = rng.integers(0, ckpt.config.vocab_size, (rows, t_len))
    copies = cache.take([0] * rows)
    want = decode.extend(ckpt, feeds, copies)
    shared = decode.KVCache(keys=list(cache.keys), values=list(cache.values))
    got = decode.extend(ckpt, feeds, shared)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert shared.length == copies.length == plen + t_len
    for a, b in zip(shared.keys + shared.values, copies.keys + copies.values):
        assert a.shape == b.shape and a.shape[0] == rows and a.tobytes() == b.tobytes()
    ((bucket, scored),) = decode.bucket_logits(ckpt, list(feeds), cache)
    assert bucket == list(range(rows)) and scored.tobytes() == want.tobytes()
    assert cache.length == plen and all(a.shape[0] == 1 for a in cache.keys + cache.values)
    assert [a.tobytes() for a in cache.keys + cache.values] == before


def test_extend_rejects_a_cache_of_another_row_count():
    ckpt = make_ckpt()
    _, cache = decode.prefill(ckpt, [1, 2, 3])
    with pytest.raises(ValueError, match="2 rows for 3 rows"):
        decode.extend(ckpt, [[4], [5], [6]], cache.take([0, 0]))
    assert cache.length == 3


def test_tape_free_prefill_holds_one_copy():
    # A desk-shape prefill of 200 tokens peaks, by tracemalloc, at most 3 MiB
    # above the logits and cache it returns: one (heads, t, t) score buffer
    # and the FFN's rows x d_ff arrays. Score arrays copied per softmax step,
    # as a taped softmax keeps them, read 4.07 MiB.
    ckpt = make_ckpt("desk")
    tokens = named_rng(0, "one-copy").integers(0, ckpt.config.vocab_size, 200)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits, cache = decode.prefill(ckpt, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    returned = logits.nbytes + sum(a.nbytes for a in cache.keys + cache.values)
    assert peak - base - returned <= 3.0 * 2**20


def test_extend_rejects_bad_tokens():
    ckpt = make_ckpt()
    _, cache = decode.prefill(ckpt, [1, 2])
    for bad in ([[1, ckpt.config.vocab_size]], [[-1]], [1, 2], [[]]):
        with pytest.raises(ValueError):
            decode.extend(ckpt, bad, cache.take([0]))
    assert cache.length == 2


SCORING_CKPTS = {}


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(["toy", "desk"]), dtype=st.sampled_from([np.float32, np.float64]),
       size=st.integers(1, 4), equal=st.booleans(), as_group=st.booleans(), data=st.data())
def test_tape_free_scoring_is_bit_identical_to_the_taped_pass(shape, dtype, size, equal, as_group, data):
    # The frozen reference is scored without a tape and the policy under one:
    # their log-probs must agree bit for bit. The group shares a prompt; at
    # the desk shape it is 64 tokens and each sequence adds up to 48, where a
    # run over one row fewer per sequence changes logit bits.
    if (shape, dtype) not in SCORING_CKPTS:
        SCORING_CKPTS[shape, dtype] = make_ckpt(shape, dtype)
    ckpt = SCORING_CKPTS[shape, dtype]
    plen, most = (64, 48) if shape == "desk" else (data.draw(st.integers(1, 12)), 12)
    if equal:
        news = [data.draw(st.integers(1, most))] * size
    else:
        news = data.draw(st.lists(st.integers(1, most), min_size=size, max_size=size))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prompt = rng.integers(0, ckpt.config.vocab_size, plen)
    seqs = [np.concatenate([prompt, rng.integers(0, ckpt.config.vocab_size, n)]) for n in news]
    masks = [np.concatenate([[False], rng.random(len(s) - 1) < 0.6]) for s in seqs]
    grouped = size > 1 or as_group
    for fn, args in ((loops.token_logprobs, (seqs, plen)), (loops.response_logprob, (seqs, masks))):
        if not grouped:
            args = tuple(a[0] if isinstance(a, list) else a for a in args)
        with T.Graph():
            taped = fn(ckpt, *args)
            taped = [t.data for t in (taped if grouped else [taped])]
        free = fn(ckpt, *args)
        free = [t.data for t in (free if grouped else [free])]
        assert len(free) == len(taped) == (len(seqs) if grouped else 1)
        for got, want in zip(free, taped):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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
        decode.extend(ckpt, [[vocab]], cache)
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
    shared = GroupRollouts(decode.prefill(ckpt, prompt), 4)
    rng_a, rng_b = named_rng(9, "rollouts"), named_rng(9, "rollouts")
    for _ in range(4):
        from_shared = sample_response(ckpt, prompt, rng_a, 8, 1.0, stop, (), shared)
        assert from_shared == sample_response(ckpt, prompt, rng_b, 8, 1.0, stop)
    assert shared.prefilled[1].length == len(prompt)
    assert shared.left == 0


@pytest.mark.parametrize("shape", ["toy", "desk"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_step_rows_are_bit_identical_to_single_steps(shape, dtype):
    # the rows of one batched step, then of rows dropped from the batch, each
    # against a batch of one fed the same tokens
    ckpt = make_ckpt(shape, dtype)
    vocab = ckpt.config.vocab_size
    logits, cache = decode.prefill(ckpt, random_tokens(9, "batched-prompt"))
    feeds = named_rng(1, "batched-feeds").integers(0, vocab, (5, 4))
    batch = cache.take([0] * len(feeds))
    got = [decode.extend(ckpt, feeds[:, n:n + 1], batch)[:, 0] for n in (0, 1)]
    batch = batch.take([0, 2, 4])
    got += [decode.extend(ckpt, feeds[::2, n:n + 1], batch)[:, 0] for n in (2, 3)]
    for m, feed in enumerate(feeds):
        single = cache.take([0])
        for n, rows in enumerate(got):
            if n >= 2 and m % 2:
                break
            want = decode.extend(ckpt, [[feed[n]]], single)[:, 0]
            assert want.shape == (1, vocab) and want.dtype == dtype
            assert np.array_equal(rows[m if n < 2 else m // 2], want[0])
    assert cache.length == 9 and batch.length == 13


@pytest.mark.parametrize("stop_at,kept", [(1, 2), (4, 4)])
def test_a_round_keeps_the_rows_up_to_the_first_early_stop(monkeypatch, stop_at, kept):
    # row 1 draws the stop token at step stop_at of 5; the others never do
    ckpt = make_ckpt()
    chosen, stepped, original = [], [], decode.extend

    def choose(logits, live, n):
        assert logits.shape == (len(live), ckpt.config.vocab_size)
        chosen.append(list(live))
        return [9 if m == 1 and n == stop_at else 3 for m in live]

    def extend(c, tokens, cache):
        stepped.append(len(tokens))
        return original(c, tokens, cache)

    prefilled = decode.prefill(ckpt, [1, 2])
    monkeypatch.setattr(decode, "extend", extend)
    outs = decode.decode(ckpt, prefilled, 4, 5, choose, stop=[9])
    assert outs[:2] == [[3] * 5, [3] * stop_at + [9]]
    assert len(outs) == kept
    # a stop before the budget drops rows 2 and 3 from the batch at that
    # step: they take no token there and no further step
    if kept == 2:
        assert chosen == [[0, 1, 2, 3]] * 2 + [[0]] * 3
        assert stepped == [4, 1, 1, 1]
    else:
        assert chosen == [[0, 1, 2, 3]] * 5
        assert stepped == [4, 4, 4, 4]


def same_state(a, b):
    """Bit generator states, compared whole: MT19937's holds an ndarray."""
    return pickle.dumps(a) == pickle.dumps(b)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_choice_is_one_inverse_cdf_draw(bit_generator):
    # sample_response draws as Generator.choice(n, p=p) does: count the
    # normalized CDF entries at or below one random(). A numpy release that
    # draws otherwise fails here rather than in a rollout oracle.
    rng_a, rng_b = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
    shapes = named_rng(0, f"choice/{bit_generator.__name__}")
    for _ in range(300):
        logits = shapes.normal(0.0, shapes.uniform(0.1, 8.0), int(shapes.integers(2, 400)))
        logits[shapes.random(len(logits)) < 0.3] = -np.inf  # suppressed ids
        logits[shapes.integers(len(logits))] = 0.0
        p = np.exp(logits - logits.max())
        p /= p.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        assert rng_a.choice(len(p), p=p) == (cdf <= rng_b.random()).sum()
        assert same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_logits_raise_value_error(bad):
    ckpt = make_ckpt()
    logits, cache = decode.prefill(ckpt, [1, 2])
    logits[-1, 5] = bad
    for group_size in (1, 3):
        with pytest.raises(ValueError):
            sample_response(ckpt, [1, 2], named_rng(0, "nan"), 4, 1.0, 0, (),
                            GroupRollouts((logits, cache), group_size))


@pytest.mark.parametrize("group_size", [1, 2, 8])
@pytest.mark.parametrize("budget", [1, 12])
def test_lockstep_rollouts_match_sequential_sampling(monkeypatch, group_size, budget):
    # a raised stop-token column makes most rollouts stop before 12 tokens,
    # so most groups of 2 or 8 need more than one round
    ckpt = make_ckpt()
    stop = TOK.special_id("<|end|>")
    ckpt.params["lm_head"].data[:, stop] += np.float32(1.0)
    suppress = [i for i in range(TOK.base_size, TOK.vocab_size) if i != stop]
    rounds = []
    monkeypatch.setattr(loops, "decode", lambda *args: rounds.append(1) or decode.decode(*args))
    per_group = []
    for seed in range(20):
        prompt = random_tokens(6, f"lockstep{seed}")
        name = f"lockstep/seed{seed}"
        rng_a, rng_b = named_rng(seed, name), named_rng(seed, name)
        if seed % 2:  # a buffered 32-bit half, which rng.choice leaves alone
            rng_a.integers(0, 7, dtype=np.uint32)
            rng_b.integers(0, 7, dtype=np.uint32)
        shared = GroupRollouts(decode.prefill(ckpt, prompt), group_size)
        before = len(rounds)
        got = [sample_response(ckpt, prompt, rng_a, budget, 1.0, stop, suppress, shared)
               for _ in range(group_size)]
        per_group.append(len(rounds) - before)
        want = [reference_sample(ckpt, prompt, rng_b, budget, 1.0, stop, suppress)
                for _ in range(group_size)]
        assert got == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    if group_size == 1 or budget == 1:  # no rollout can stop before the budget with others after it
        assert per_group == [1] * 20
    else:
        assert max(per_group) >= 2


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_lockstep_rollouts_match_sequential_sampling_on_any_stream(bit_generator):
    # the lockstep oracle above, on bit generators that cannot advance by
    # draws: a round reads its uniforms as one block and restores the state
    ckpt = make_ckpt()
    stop = TOK.special_id("<|end|>")
    ckpt.params["lm_head"].data[:, stop] += np.float32(1.0)
    suppress = [i for i in range(TOK.base_size, TOK.vocab_size) if i != stop]
    early = 0
    for seed in range(8):
        prompt = random_tokens(6, f"lockstep{seed}")
        rng_a, rng_b = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        if seed % 2:  # a buffered 32-bit half, which rng.choice leaves alone
            rng_a.integers(0, 7, dtype=np.uint32)
            rng_b.integers(0, 7, dtype=np.uint32)
        shared = GroupRollouts(decode.prefill(ckpt, prompt), 8)
        got = [sample_response(ckpt, prompt, rng_a, 12, 1.0, stop, suppress, shared) for _ in range(8)]
        want = [reference_sample(ckpt, prompt, rng_b, 12, 1.0, stop, suppress) for _ in range(8)]
        assert got == want
        assert same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)
        early += sum(len(r) < 12 for r in got[:-1])
    assert early  # some group took more than one round
