"""Training-loop tests: scoring helpers, loop mechanics, and the toy
overfit/learning smoke properties."""

import gc
import math
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from forge import tensor as T
from forge.datapipe.chat import (
    ChatSample,
    Message,
    build_loss_mask,
    load_chat_dataset,
    render_chat,
)
from forge.datapipe.packing import pack_samples
from forge.datapipe.tokenizer import allocate_chat_specials
from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng
from forge.train.loops import (
    NumericError,
    TrainSettings,
    encode_preference_pairs,
    load_preference_dataset,
    load_rl_dataset,
    response_logprob,
    sample_response,
    sft_batch_loss,
    token_logprobs,
    train_dpo,
    train_grpo,
    train_sft,
)
from forge.train.losses import GrpoGroup, PreferenceBatch, dpo_loss, dpop_loss, grpo_objective
from forge.train.schedule import ScheduleSpec

FIXTURES = Path(__file__).parent / "fixtures"

TOK = allocate_chat_specials([], n_reserved=8)


def toy_config():
    return ModelConfig(
        n_layers=2, d_model=32, n_heads=4, n_kv_heads=2, head_size=8,
        d_ff=64, vocab_size=TOK.vocab_size, rope_theta=1e4,
        native_ctx=128, extended_ctx=512, rmsnorm_eps=1e-6,
    )


def fresh_ckpt(name="toy-init", seed=7, dtype=np.float32):
    return init_params(toy_config(), named_rng(seed, name), dtype=dtype)


def clone(ckpt):
    other = init_params(ckpt.config, named_rng(0, "clone"), dtype=ckpt.params["lm_head"].dtype)
    for n, p in other.params.items():
        p.data[...] = ckpt.params[n].data
    return other


def constant_spec(lr, steps, warmup=0):
    return ScheduleSpec(peak_lr=lr, min_lr=lr, warmup_steps=warmup, total_steps=steps, shape="constant")


def sft_batches(max_len=80):
    samples = load_chat_dataset(FIXTURES / "sft_dialogues.jsonl")
    enc = [(r.token_ids, build_loss_mask(r)) for r in (render_chat(s, TOK) for s in samples)]
    return pack_samples(enc, max_len=max_len)


# --- scoring helpers ---

def test_response_logprob_matches_manual_sum():
    ckpt = fresh_ckpt(dtype=np.float64)
    tokens = np.array([1, 9, 4, 2, 6], dtype=np.int64)
    mask = np.array([False, False, True, True, True])
    got = response_logprob(ckpt, tokens, mask).item()
    logp = T.log_softmax(forward(ckpt, tokens[:-1]), axis=-1).numpy()
    want = sum(logp[i - 1, tokens[i]] for i in (2, 3, 4))
    assert got == pytest.approx(want, abs=1e-12)


def test_response_logprob_rejects_degenerate_masks():
    ckpt = fresh_ckpt()
    with pytest.raises(ValueError):
        response_logprob(ckpt, [1], [True])
    with pytest.raises(ValueError):
        response_logprob(ckpt, [1, 2], [True, False])


@pytest.mark.parametrize("ids", [[1.5, 2.7, 3.2], [1.0, 2.0, 3.0], [True, False, True], [1, True, 3]])
def test_loop_scorers_refuse_ids_that_are_not_integers(ids):
    """Float and bool ids raise, as in ``forward``; a cast would score [1, 2, 3]."""
    ckpt = fresh_ckpt()
    mask = [False, True, True]
    with pytest.raises(ValueError, match="integers"):
        token_logprobs(ckpt, ids, 1)
    with pytest.raises(ValueError, match="integers"):
        response_logprob(ckpt, ids, mask)
    with pytest.raises(ValueError, match="integers"):
        token_logprobs(ckpt, [[4, 5, 6], ids], 1)
    with pytest.raises(ValueError, match="integers"):
        response_logprob(ckpt, [[4, 5, 6], ids], [mask, mask])


@pytest.mark.parametrize("tokens,masks,bad", [
    ([1, 2, 3], [False, True], 0),  # short: scored the first two tokens
    ([1, 2, 3], [False, True, True, True], 0),  # long: IndexError
    ([[1, 2, 3], [4, 5, 6]], [[False, True], [False, True, True]], 0),  # short: took a row of sequence 1
    ([[1, 2, 3], [4, 5, 6]], [[False, True, True], [False, True]], 1),
])
def test_response_logprob_needs_one_mask_entry_per_token(tokens, masks, bad):
    with pytest.raises(ValueError, match=f"sequence {bad}: mask"):
        response_logprob(fresh_ckpt(), tokens, masks)


def test_response_logprob_needs_one_mask_per_sequence():
    with pytest.raises(ValueError, match="2 sequences but 1 masks"):
        response_logprob(fresh_ckpt(), [[1, 2, 3], [4, 5, 6]], [[False, True, True]])


def test_token_logprobs_sum_to_response_logprob():
    ckpt = fresh_ckpt(dtype=np.float64)
    tokens = np.array([3, 1, 4, 1, 5, 9], dtype=np.int64)
    per_tok = token_logprobs(ckpt, tokens, from_pos=2)
    mask = np.zeros(len(tokens), dtype=bool)
    mask[2:] = True
    total = response_logprob(ckpt, tokens, mask)
    assert per_tok.shape == (4,)
    assert per_tok.numpy().sum() == pytest.approx(total.item(), abs=1e-12)
    with pytest.raises(ValueError):
        token_logprobs(ckpt, tokens, from_pos=0)


def test_token_logprobs_gradient_flows():
    ckpt = fresh_ckpt(dtype=np.float64)
    tokens = np.array([3, 1, 4, 1], dtype=np.int64)
    with T.Graph() as g:
        lp = token_logprobs(ckpt, tokens, from_pos=1)
        g.backward(T.sum_(lp))
        assert g.grad(ckpt.params["lm_head"]) is not None
    # train_grpo takes its behaviour log-probs from the taped pass: the tape
    # must not change a single bit of the values
    np.testing.assert_array_equal(lp.data, token_logprobs(ckpt, tokens, from_pos=1).numpy())
    ckpt32 = fresh_ckpt()
    with T.Graph():
        taped = token_logprobs(ckpt32, tokens, from_pos=2).data
    np.testing.assert_array_equal(taped, token_logprobs(ckpt32, tokens, from_pos=2).numpy())


def _taped_objective(name, ckpt):
    tokens = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
    if name == "sft":
        return sft_batch_loss(ckpt, sft_batches()[0])
    if name == "dpop":
        mask = np.arange(len(tokens)) >= 4
        chosen = response_logprob(ckpt, tokens, mask).reshape(1)
        rejected = response_logprob(ckpt, tokens[::-1], mask).reshape(1)
        return dpop_loss(PreferenceBatch(policy_chosen=chosen, policy_rejected=rejected,
                                         ref_chosen=chosen.data + 0.5, ref_rejected=rejected.data))
    lp = [token_logprobs(ckpt, tokens, from_pos=4), token_logprobs(ckpt, tokens[::-1], from_pos=4)]
    return grpo_objective(GrpoGroup(logp_policy=lp, logp_old=[t.data - 0.3 for t in lp],
                                    logp_ref=[t.data + 0.1 for t in lp], rewards=np.array([1.0, 0.0])))


def _ragged_grpo_objective(ckpt):
    """A GRPO group as ``train_grpo`` builds it, of rollouts of three lengths behind one prompt."""
    rng = named_rng(0, "ragged-group")
    prompt = rng.integers(0, TOK.vocab_size, 6).tolist()
    rollouts = [prompt + rng.integers(0, TOK.vocab_size, n).tolist() for n in (3, 5, 3, 2)]
    lp = token_logprobs(ckpt, rollouts, len(prompt))
    return grpo_objective(GrpoGroup(logp_policy=lp, logp_old=[t.data - 0.3 for t in lp],
                                    logp_ref=[t.data + 0.1 for t in lp], rewards=np.array([1.0, 0.0, 0.5, 1.0])))


@pytest.mark.parametrize("name", ["sft", "dpop", "ragged_grpo"])
def test_backward_runs_each_vjp_once(name):
    """Every recorded node's VJP runs exactly once per backward, and wrapping
    each in a call counter leaves every parameter gradient's bytes as they were."""
    ckpt = fresh_ckpt()

    def grads(count):
        with T.Graph() as g:
            loss = _ragged_grpo_objective(ckpt) if name == "ragged_grpo" else _taped_objective(name, ckpt)
        calls = {}

        def counted(nid, vjp):
            def run(grad_out):
                calls[nid] = calls.get(nid, 0) + 1
                return vjp(grad_out)
            return run

        if count:
            for nid, node in enumerate(g.nodes):
                if node.vjp is not None:
                    node.vjp = counted(nid, node.vjp)
        recorded = {nid for nid, node in enumerate(g.nodes) if node.op != "leaf"}
        g.backward(loss)
        return [g.grad(p) for p in ckpt.params.values()], calls, recorded

    want, _, _ = grads(count=False)
    got, calls, recorded = grads(count=True)
    assert set(calls) == recorded and set(calls.values()) == {1}
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["sft", "dpop", "grpo"])
def test_taped_pass_leaves_no_reference_cycle(name):
    """A micro-batch's tape is freed by reference counting when it goes out
    of scope, not left for the cyclic collector with all its arrays."""
    ckpt = fresh_ckpt()

    def one_pass():
        with T.Graph() as g:
            loss = _taped_objective(name, ckpt)
        g.backward(loss)
        assert g.grad(ckpt.params["lm_head"]) is not None

    gc.collect()
    gc.disable()
    try:
        one_pass()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_loss_heads_are_one_tape_node_each():
    """A GRPO group as ``train_grpo`` builds it records one ``target_logprobs``
    node over the group's pass and one ``grpo_objective`` node, and no primitive
    of their composites (``where``, ``sub``, ``mean``, ``exp``, ``concat``, ...).
    A DPO or DPOP pair's loss, as ``train_dpo`` builds it, adds one node."""
    ckpt = fresh_ckpt()
    rng = named_rng(0, "loss-head-tape")
    prompt = rng.integers(0, TOK.vocab_size, 6).tolist()
    rollouts = [prompt + rng.integers(0, TOK.vocab_size, n).tolist() for n in (3, 5, 3, 2)]
    with T.Graph() as g:
        lp = token_logprobs(ckpt, rollouts, len(prompt))
        head = len(g.nodes)
        grpo_objective(GrpoGroup(logp_policy=lp, logp_old=[t.data for t in lp],
                                 logp_ref=[t.data + 0.1 for t in lp], rewards=np.array([1.0, 0.0, 0.0, 1.0])))
    ops = [n.op for n in g.nodes]
    assert ops[head:] == ["grpo_objective"] and ops.count("target_logprobs") == 1
    assert set(ops) == {"leaf", "embedding", "rms_norm", "block_matmul", "attention", "swiglu_ffn", "add",
                        "slice", "sum", "target_logprobs", "grpo_objective"}

    tokens = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
    mask = np.arange(len(tokens)) >= 4
    for loss_fn in (dpo_loss, dpop_loss):
        with T.Graph() as g:
            chosen, rejected = response_logprob(ckpt, [tokens, tokens[::-1]], [mask, mask])
            batch = PreferenceBatch(policy_chosen=T.reshape(chosen, (1,)), policy_rejected=T.reshape(rejected, (1,)),
                                    ref_chosen=[chosen.item() + 0.5], ref_rejected=[rejected.item()])  # hinge active
            head = len(g.nodes)
            loss_fn(batch)
        assert [n.op for n in g.nodes[head:]] == ["preference_loss"]


# --- sft over packed batches ---

def test_sft_batch_loss_equals_unpacked_oracle():
    ckpt = fresh_ckpt(dtype=np.float64)
    samples = load_chat_dataset(FIXTURES / "sft_dialogues.jsonl")[:4]
    enc = [(r.token_ids, build_loss_mask(r)) for r in (render_chat(s, TOK) for s in samples)]
    batch = pack_samples(enc, max_len=200)[0]
    assert len(np.unique(batch.segment_ids)) == 4

    packed = sft_batch_loss(ckpt, batch).item()
    total, n_active = 0.0, 0
    for ids, mask in enc:
        logits = forward(ckpt, ids)
        logp = T.log_softmax(T.narrow(logits, 0, 0, len(ids) - 1), axis=-1).numpy()
        sel = mask[1:]
        total += -logp[np.flatnonzero(sel), ids[1:][sel]].sum()
        n_active += int(sel.sum())
    assert packed == pytest.approx(total / n_active, rel=1e-9)


def test_sft_batch_loss_never_predicts_across_segments():
    # make the only would-be target the first token of the second segment
    a = (np.array([1, 2, 3], dtype=np.int64), np.array([False, False, False]))
    b = (np.array([4, 5], dtype=np.int64), np.array([True, False]))
    batch = pack_samples([a, b], max_len=8)[0]
    ckpt = fresh_ckpt()
    # segment-2 position 0 is masked in the shifted view; nothing remains
    with pytest.raises(ValueError):
        sft_batch_loss(ckpt, batch)


def test_train_sft_overfits_eight_dialogues():
    ckpt = fresh_ckpt()
    spec = constant_spec(1e-2, 200, warmup=10)
    rows = train_sft(ckpt, sft_batches(), TrainSettings(spec=spec, steps=200))
    assert rows[0]["loss"] > 1.0
    assert rows[-1]["loss"] < 0.1


def test_train_sft_writes_step_log(tmp_path):
    ckpt = fresh_ckpt()
    log = tmp_path / "steps.csv"
    spec = constant_spec(1e-3, 3)
    train_sft(ckpt, sft_batches(), TrainSettings(spec=spec, steps=3), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm"
    assert len(lines) == 4
    step, lr, loss, gn = lines[1].split(",")
    assert step == "0" and float(lr) == 1e-3 and float(loss) > 0 and float(gn) > 0


def test_train_sft_deterministic():
    spec = constant_spec(1e-3, 5)
    runs = []
    for _ in range(2):
        ckpt = fresh_ckpt()
        rows = train_sft(ckpt, sft_batches(), TrainSettings(spec=spec, steps=5))
        runs.append(([r["loss"] for r in rows], ckpt.params["lm_head"].data.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_sft_raises_on_nonfinite_loss():
    ckpt = fresh_ckpt()
    ckpt.params["lm_head"].data[0, 0] = np.nan
    spec = constant_spec(1e-3, 2)
    with pytest.raises(NumericError):
        train_sft(ckpt, sft_batches(), TrainSettings(spec=spec, steps=2))


def test_train_settings_validation():
    spec = constant_spec(1e-3, 5)
    with pytest.raises(ValueError):
        TrainSettings(spec=spec, steps=0)
    with pytest.raises(ValueError):
        TrainSettings(spec=spec, steps=5, accum=0)
    with pytest.raises(ValueError):  # schedule only covers 5 steps
        TrainSettings(spec=spec, steps=6)


# --- preference loop ---

def encoded_pairs():
    return encode_preference_pairs(
        load_preference_dataset(FIXTURES / "preference_pairs.jsonl"), TOK
    )


def test_load_preference_dataset_shape():
    pairs = load_preference_dataset(FIXTURES / "preference_pairs.jsonl")
    assert len(pairs) == 16
    assert pairs[0]["prompt"][0].role == "user"
    assert pairs[0]["chosen"][0].role == "assistant"


def test_load_preference_dataset_names_bad_line(tmp_path):
    p = tmp_path / "pairs.jsonl"
    p.write_text('{"prompt": [], "chosen": []}\n')
    with pytest.raises(ValueError, match=r"pairs\.jsonl:1"):
        load_preference_dataset(p)


def test_encode_preference_pairs_masks_only_the_response():
    prompt = [
        Message("user", "2+2=?"),
        Message("assistant", "\\boxed{4}"),
        Message("user", "3+3=?"),
    ]
    pair = {"prompt": prompt, "chosen": [Message("assistant", "\\boxed{6}")],
            "rejected": [Message("assistant", "\\boxed{7}")]}
    enc = encode_preference_pairs([pair], TOK)[0]
    rendered = render_chat(ChatSample(prompt + [Message("assistant", "\\boxed{6}")]), TOK)
    prompt_len = len(render_chat(ChatSample(prompt), TOK).token_ids)
    mask = enc["mask_chosen"]
    # the in-prompt assistant turn is context, not a scored response
    assert not mask[:prompt_len].any()
    assert mask.sum() == len(TOK.encode("\\boxed{6}"))
    assert np.array_equal(enc["tokens_chosen"], rendered.token_ids)


def test_train_dpo_starts_at_ln2_and_learns():
    policy = fresh_ckpt()
    ref = clone(policy)
    spec = constant_spec(2e-3, 30, warmup=5)
    rows = train_dpo(policy, ref, encoded_pairs(),
                     TrainSettings(spec=spec, steps=30, accum=4), variant="dpo")
    assert rows[0]["loss"] == pytest.approx(math.log(2), abs=1e-5)
    assert rows[-1]["loss"] < math.log(2)


def test_train_dpop_learns_below_ln2():
    policy = fresh_ckpt()
    ref = clone(policy)
    spec = constant_spec(2e-3, 30, warmup=5)
    rows = train_dpo(policy, ref, encoded_pairs(),
                     TrainSettings(spec=spec, steps=30, accum=4), variant="dpop")
    assert rows[-1]["loss"] < math.log(2)


def test_train_dpo_rejects_unknown_variant():
    policy = fresh_ckpt()
    with pytest.raises(ValueError):
        train_dpo(policy, clone(policy), encoded_pairs(),
                  TrainSettings(spec=constant_spec(1e-3, 2), steps=2), variant="orpo")


def test_train_dpo_deterministic():
    losses = []
    for _ in range(2):
        policy = fresh_ckpt()
        ref = clone(policy)
        rows = train_dpo(policy, ref, encoded_pairs()[:4],
                         TrainSettings(spec=constant_spec(1e-3, 3), steps=3, accum=2))
        losses.append([r["loss"] for r in rows])
    assert losses[0] == losses[1]


# --- grpo loop ---

def test_sample_response_respects_stop_budget_and_suppression():
    ckpt = fresh_ckpt()
    stop = TOK.special_id("<|end|>")
    suppress = [i for i in range(TOK.base_size, TOK.vocab_size) if i != stop]
    rng = named_rng(0, "sampling")
    out = sample_response(ckpt, [1, 2, 3], rng, max_tokens=10, temperature=1.0,
                          stop_id=stop, suppress=suppress)
    assert 1 <= len(out) <= 10
    for tid in out[:-1]:
        assert tid < TOK.base_size
    assert all(t < TOK.base_size or t == stop for t in out)


def test_sample_response_deterministic_per_rng_name():
    ckpt = fresh_ckpt()
    stop = TOK.special_id("<|end|>")
    a = sample_response(ckpt, [1, 2], named_rng(5, "x"), 8, 1.0, stop)
    b = sample_response(ckpt, [1, 2], named_rng(5, "x"), 8, 1.0, stop)
    c = sample_response(ckpt, [1, 2], named_rng(5, "y"), 8, 1.0, stop)
    assert a == b
    assert a != c  # different stream; equality would be a 264^-8 coincidence


def test_sample_response_rejects_bad_temperature():
    with pytest.raises(ValueError):
        sample_response(fresh_ckpt(), [1], named_rng(0, "t"), 4, 0.0, 0)


def test_load_rl_dataset_validates_verifier(tmp_path):
    p = tmp_path / "rl.jsonl"
    p.write_text('{"prompt": [{"role": "user", "content": "hi"}], "verifier": "vibes", "truth": "4"}\n')
    with pytest.raises(ValueError, match=r"rl\.jsonl:1"):
        load_rl_dataset(p)
    problems = load_rl_dataset(FIXTURES / "rl_math.jsonl")
    assert len(problems) == 20
    assert {p["verifier"] for p in problems} == {"math"}


def test_train_grpo_smoke_and_determinism():
    problems = load_rl_dataset(FIXTURES / "rl_math.jsonl")[:2]
    runs = []
    for _ in range(2):
        policy = fresh_ckpt()
        ref = clone(policy)
        rows = train_grpo(
            policy, ref, problems, TOK,
            TrainSettings(spec=constant_spec(1e-3, 2), steps=2),
            group_size=2, temperature=1.0, max_tokens=6, seed=3,
        )
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"step", "lr", "loss", "grad_norm", "mean_reward", "mean_kl"}
            assert np.isfinite(row["loss"])
            assert 0.0 <= row["mean_reward"] <= 1.0
            assert row["mean_kl"] >= -1e-12
        runs.append([(r["loss"], r["mean_reward"], r["mean_kl"]) for r in rows])
    assert runs[0] == runs[1]


def test_train_grpo_scores_each_rollout_once_per_policy(monkeypatch):
    from forge.train import loops

    calls = []
    original = loops.token_logprobs

    def counting(ckpt, tokens, from_pos):
        calls.append((ckpt, T._current_graph() is not None, len(tokens)))
        return original(ckpt, tokens, from_pos)

    monkeypatch.setattr(loops, "token_logprobs", counting)
    policy = fresh_ckpt()
    ref = clone(policy)
    train_grpo(
        policy, ref, load_rl_dataset(FIXTURES / "rl_math.jsonl")[:1], TOK,
        TrainSettings(spec=constant_spec(1e-3, 1), steps=1),
        group_size=3, max_tokens=4, seed=3,
    )
    # one pass over the group's 3 rollouts each: the reference tape-free, the
    # policy under the tape; no second tape-free pass of the policy for its
    # behaviour log-probs
    scored = sorted((c is policy, taped, n) for c, taped, n in calls)
    assert scored == [(False, False, 3), (True, True, 3)]


def test_train_grpo_rejects_small_group():
    policy = fresh_ckpt()
    with pytest.raises(ValueError):
        train_grpo(policy, clone(policy), load_rl_dataset(FIXTURES / "rl_math.jsonl")[:1],
                   TOK, TrainSettings(spec=constant_spec(1e-3, 1), steps=1), group_size=1)


def test_train_grpo_step_log_has_rl_columns(tmp_path):
    log = tmp_path / "rl.csv"
    policy = fresh_ckpt()
    train_grpo(
        policy, clone(policy), load_rl_dataset(FIXTURES / "rl_math.jsonl")[:2], TOK,
        TrainSettings(spec=constant_spec(1e-3, 1), steps=1),
        group_size=2, max_tokens=6, seed=3, log_path=log,
    )
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm,mean_reward,mean_kl"
    assert len(lines) == 2


# --- the micro-unit schedule ---

def test_run_steps_maps_each_unit_to_its_item(monkeypatch):
    """Unit j of step s takes item (s * per_step + j) mod len(items) in every loop,
    wrapping when a step takes more units than there are items. A GRPO unit
    draws from its own stream ``grpo/step{s}/slot{j}``, samples and scores the
    reference while no tape records, and only then scores the policy on its tape."""
    from forge.train import loops

    events = []

    def taped():
        return T._current_graph() is not None

    def index(items, obj):
        return next(k for k, item in enumerate(items) if item is obj)

    batches = sft_batches(max_len=60)  # three batches
    original_sft = loops.sft_batch_loss
    monkeypatch.setattr(loops, "sft_batch_loss",
                        lambda ckpt, batch: events.append(index(batches, batch)) or original_sft(ckpt, batch))
    # accum 5: step 1 starts at item 2, where (s + j) or j alone would start at 1 or 0
    train_sft(fresh_ckpt(), batches, TrainSettings(spec=constant_spec(1e-3, 2), steps=2, accum=5))
    assert events == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    pairs, events[:] = encoded_pairs()[:3], []
    policy = fresh_ckpt()
    original_score = loops.response_logprob

    def scoring(ckpt, tokens, masks):
        events.append((ckpt is policy, taped(), index([p["tokens_chosen"] for p in pairs], tokens[0])))
        return original_score(ckpt, tokens, masks)

    monkeypatch.setattr(loops, "response_logprob", scoring)
    train_dpo(policy, clone(policy), pairs, TrainSettings(spec=constant_spec(1e-3, 2), steps=2, accum=5))
    # the reference once per pair, tape-free; then the policy per unit, on its tape
    assert events == [(False, False, k) for k in range(3)] + [(True, True, k) for k in [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]]

    problems, events[:] = load_rl_dataset(FIXTURES / "rl_math.jsonl")[:3], []
    policy = fresh_ckpt()
    originals = {name: getattr(loops, name) for name in ("render_chat", "named_rng", "sample_response", "token_logprobs")}

    def rendering(sample, tok):
        events.append(("item", index([p["prompt"][0] for p in problems], sample.messages[0])))
        return originals["render_chat"](sample, tok)

    def naming(seed, name):
        events.append(("stream", name))
        return originals["named_rng"](seed, name)

    def sampling(*args, **kwargs):
        events.append(("sample", taped()))
        return originals["sample_response"](*args, **kwargs)

    def scoring_tokens(ckpt, tokens, from_pos):
        events.append(("policy" if ckpt is policy else "reference", taped()))
        return originals["token_logprobs"](ckpt, tokens, from_pos)

    for name, fn in (("render_chat", rendering), ("named_rng", naming), ("sample_response", sampling),
                     ("token_logprobs", scoring_tokens)):
        monkeypatch.setattr(loops, name, fn)
    train_grpo(policy, clone(policy), problems, TOK, TrainSettings(spec=constant_spec(1e-3, 2), steps=2, accum=2),
               group_size=2, max_tokens=4, seed=3, prompts_per_step=2)
    want = []
    for step in range(2):
        for slot in range(4):
            want += [("item", (step * 4 + slot) % 3), ("stream", f"grpo/step{step}/slot{slot}"),
                     ("sample", False), ("sample", False), ("reference", False), ("policy", True)]
    assert events == want


@pytest.mark.parametrize("accum", [1, 3])
def test_run_steps_sums_the_units_gradients_in_unit_order(monkeypatch, accum):
    """A step's sums are the first unit's gradients cast to the parameter dtype,
    with each later unit's added in unit order, then divided by the unit count:
    byte for byte, the sign of a zero included. A parameter no loss reaches
    gets zeros, and no two sums share memory."""
    from forge.train import loops

    batches, ckpt = sft_batches(max_len=60), fresh_ckpt()
    ckpt.params["unreached"] = T.Tensor(np.ones(3, dtype=np.float32))
    want = {}
    for batch in batches[:accum]:
        with T.Graph() as g:
            loss = sft_batch_loss(ckpt, batch)
        g.backward(loss)
        for name, p in ckpt.params.items():
            grad = g.grad(p)
            if name not in want:
                want[name] = np.zeros_like(p.data) if grad is None else grad.astype(p.data.dtype)
            elif grad is not None:
                want[name] += grad
    seen, clip = {}, loops.clip_grad_norm

    def recording(grads, max_norm):
        arrays = list(grads.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        seen.update((name, x.copy()) for name, x in grads.items())
        return clip(grads, max_norm)

    monkeypatch.setattr(loops, "clip_grad_norm", recording)
    train_sft(ckpt, batches, TrainSettings(spec=constant_spec(1e-3, 1), steps=1, accum=accum))
    assert seen.keys() == want.keys()
    for name, x in want.items():
        assert seen[name].dtype == x.dtype and seen[name].tobytes() == (x / accum).tobytes(), name
    assert not seen["unreached"].any()


# --- tape lifetime ---

def test_training_keeps_one_tape_alive_at_a_time(monkeypatch):
    """Each micro-batch's tape is freed by reference counting (gc is off)
    before the next one is recorded and before GRPO samples the next group.
    The training driver keeps glibc from trimming the freed pages, on glibc only."""
    from forge.train import loops

    tapes, mallopt_calls = [], []

    def live_tapes():
        return [ref for ref in tapes if ref() is not None]

    def tracked_graph():
        assert not live_tapes(), "an earlier tape is still alive"
        g = T.Graph()
        tapes.append(weakref.ref(g))
        return g

    def sampling(*args, **kwargs):
        assert not live_tapes(), "a tape is alive while sampling"
        return sample_response(*args, **kwargs)

    def mallopt(param, value):
        mallopt_calls.append((param, value))
        return 1

    monkeypatch.setattr(loops, "Graph", tracked_graph)
    monkeypatch.setattr(loops, "sample_response", sampling)
    monkeypatch.setattr(loops.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(loops.platform, "libc_ver", lambda: ("glibc", "2.36"))
    gc.collect()
    gc.disable()
    try:
        train_sft(fresh_ckpt(), sft_batches(), TrainSettings(spec=constant_spec(1e-3, 2), steps=2, accum=2))
        assert len(tapes) == 4
        assert mallopt_calls == [(-3, 32 << 20), (-1, 2**31 - 1)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

        monkeypatch.setattr(loops.platform, "libc_ver", lambda: ("", ""))
        policy = fresh_ckpt()
        train_grpo(
            policy, clone(policy), load_rl_dataset(FIXTURES / "rl_math.jsonl")[:2], TOK,
            TrainSettings(spec=constant_spec(1e-3, 2), steps=2),
            group_size=2, max_tokens=6, seed=3,
        )
        assert len(tapes) == 6 and not live_tapes()
        assert len(mallopt_calls) == 2
    finally:
        gc.enable()
