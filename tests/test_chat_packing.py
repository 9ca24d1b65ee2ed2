"""Chat templating, instruction masks, and sample packing."""

import json

import numpy as np
import pytest

from forge.datapipe.chat import (
    ChatSample,
    Message,
    build_loss_mask,
    load_chat_dataset,
    message_text,
    render_chat,
)
from forge.datapipe.packing import PackedBatch, build_attention_mask, pack_samples
from forge.datapipe.tokenizer import allocate_chat_specials, train_bpe
from forge.evalharness import load_task_items
from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng
from forge.train.loops import load_preference_dataset, load_rl_dataset


def chat_tok():
    return allocate_chat_specials(train_bpe(["hello how are you fine thanks"] * 2, 8), n_reserved=8)


def sample(*pairs):
    return ChatSample(messages=[Message(role=r, content=c) for r, c in pairs])


# -- rendering ---------------------------------------------------------------------


def test_single_user_message_structure():
    tok = chat_tok()
    r = render_chat(sample(("user", "hello")), tok)
    ids = list(r.token_ids)
    assert ids[0] == tok.special_id("<|user|>")
    assert ids[-1] == tok.special_id("<|end|>")
    assert ids[1:-1] == tok.encode("hello")
    specials = [i for i in ids if i >= tok.base_size]
    assert len(specials) == 2


def test_spans_tile_sequence():
    tok = chat_tok()
    r = render_chat(
        sample(("system", "be nice"), ("user", "hi"), ("assistant", "hello")), tok
    )
    cursor = 0
    for span in r.spans:
        assert span.start == cursor
        assert span.start < span.content_start <= span.content_end < span.end
        cursor = span.end
    assert cursor == len(r.token_ids)


def test_two_turn_dialogue_control_groups():
    tok = chat_tok()
    r = render_chat(
        sample(("user", "a"), ("assistant", "b"), ("user", "c"), ("assistant", "d")), tok
    )
    opens = sum(1 for i in r.token_ids if i >= tok.base_size and i != tok.special_id("<|end|>"))
    ends = sum(1 for i in r.token_ids if i == tok.special_id("<|end|>"))
    assert opens == 4 and ends == 4
    for a, b in zip(r.spans, r.spans[1:]):
        assert a.end == b.start  # ordered, non-overlapping


def test_unknown_role_rejected():
    with pytest.raises(ValueError, match="unknown role"):
        render_chat(sample(("narrator", "x")), chat_tok())


def test_alternation_enforced():
    with pytest.raises(ValueError):
        render_chat(sample(("user", "a"), ("user", "b")), chat_tok())
    with pytest.raises(ValueError):
        render_chat(sample(("assistant", "a")), chat_tok())
    with pytest.raises(ValueError):
        render_chat(ChatSample(messages=[]), chat_tok())
    # tool result may stand in the user slot
    render_chat(
        sample(("user", "a"), ("assistant", "b"), ("tool", "result"), ("assistant", "c")),
        chat_tok(),
    )


def test_tool_calls_render_as_fenced_json():
    msg = Message(
        role="assistant",
        content="checking",
        tool_calls=[{"name": "get_weather", "arguments": {"city": "Kraków"}}],
    )
    text = message_text(msg)
    assert text.startswith("checking\n```json\n")
    assert text.endswith("\n```")
    payload = text.split("```json\n")[1].rsplit("\n```", 1)[0]
    assert json.loads(payload)[0]["name"] == "get_weather"


# -- loss mask ---------------------------------------------------------------------


def test_loss_mask_no_assistant_all_false():
    tok = chat_tok()
    r = render_chat(sample(("user", "hello")), tok)
    assert not build_loss_mask(r).any()


def test_loss_mask_assistant_content_only():
    tok = chat_tok()
    r = render_chat(
        sample(("system", "sys"), ("user", "hi"), ("assistant", "fine thanks")), tok
    )
    mask = build_loss_mask(r)
    span = r.spans[2]
    expected = np.zeros(len(r.token_ids), dtype=bool)
    expected[span.content_start : span.content_end] = True
    np.testing.assert_array_equal(mask, expected)
    # control tokens around the assistant content stay masked out
    assert not mask[span.start] and not mask[span.end - 1]


def test_loss_mask_count_equals_assistant_tokens():
    tok = chat_tok()
    r = render_chat(
        sample(("user", "a"), ("assistant", "bb"), ("user", "c"), ("assistant", "dd ee")), tok
    )
    mask = build_loss_mask(r)
    total = sum(
        s.content_end - s.content_start for s in r.spans if s.role == "assistant"
    )
    assert mask.sum() == total


def test_load_chat_dataset(tmp_path):
    path = tmp_path / "chats.jsonl"
    rec = {"messages": [{"role": "user", "content": "hi"}, {"role": "assistant", "content": "yo"}]}
    path.write_text(json.dumps(rec) + "\n\n" + json.dumps(rec) + "\n")
    samples = load_chat_dataset(path)
    assert len(samples) == 2
    assert samples[0].messages[1].content == "yo"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{\"messages\": [{\"role\": \"user\"}]}\nnot json\n")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_chat_dataset(bad)


USER = [{"role": "user", "content": "hi"}]
LOADERS = {
    "chat": (load_chat_dataset, {"messages": USER + [{"role": "assistant", "content": "yo"}]}),
    "preference": (load_preference_dataset, {
        "prompt": USER, "chosen": [{"role": "assistant", "content": "a"}],
        "rejected": [{"role": "assistant", "content": "b"}],
    }),
    "rl": (load_rl_dataset, {"prompt": USER, "verifier": "math", "truth": "4"}),
    "task": (load_task_items, {"context": [1], "choices": [[2], [3]], "gold": 0}),
}
# records that parse as JSON objects but would crash a later stage
BAD_RECORDS = {
    "rl": [
        {"prompt": USER, "verifier": "math", "truth": 4},
        {"prompt": USER, "verifier": "mcq", "truth": "B"},
        {"prompt": USER, "verifier": "mcq", "truth": {"labels": ["A", "A"], "correct": "A"}},
        {"prompt": USER, "verifier": "mcq", "truth": {"labels": ["A", "B"], "correct": "C"}},
        {"prompt": USER, "verifier": "tool", "truth": {}},
        {"prompt": USER, "verifier": "tool", "truth": {"expected": [{"arguments": {}}]}},
    ],
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_record_loaders_skip_blanks_and_name_bad_lines(tmp_path, kind):
    load, rec = LOADERS[kind]
    good = json.dumps(rec)
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + good + "\n   \n" + good + "\n", encoding="utf-8")
    assert len(load(path)) == 2
    for bad in ("not json", "[1, 2]", '"text"', "7", *map(json.dumps, BAD_RECORDS.get(kind, []))):
        path.write_text(good + "\n\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"records\.jsonl:3"):
            load(path)


# -- packing -----------------------------------------------------------------------


def mk(n, mask_val=True):
    return np.arange(n), np.full(n, mask_val, dtype=bool)


def test_exact_fit_single_batch():
    batches = pack_samples([mk(4), mk(4)], max_len=8)
    assert len(batches) == 1
    np.testing.assert_array_equal(batches[0].segment_ids, [0, 0, 0, 0, 1, 1, 1, 1])


def test_overflow_opens_new_batch():
    batches = pack_samples([mk(5), mk(4)], max_len=8)
    assert len(batches) == 2
    assert len(batches[0]) == 5 and len(batches[1]) == 4


def test_positions_restart_per_segment():
    batches = pack_samples([mk(2), mk(3)], max_len=8)
    np.testing.assert_array_equal(batches[0].positions, [0, 1, 0, 1, 2])
    np.testing.assert_array_equal(batches[0].segment_ids, [0, 0, 1, 1, 1])


def test_oversize_sample_rejected():
    with pytest.raises(ValueError, match="over max_len"):
        pack_samples([mk(9)], max_len=8)


def test_later_small_sample_does_not_backfill():
    # input order is preserved: the 3-token sample does not return to batch 0
    batches = pack_samples([mk(5), mk(6), mk(3)], max_len=8)
    assert [len(b) for b in batches] == [5, 6, 3]


def test_loss_masks_concatenate():
    a = (np.array([1, 2]), np.array([False, True]))
    b = (np.array([3, 4, 5]), np.array([True, False, True]))
    batches = pack_samples([a, b], max_len=8)
    np.testing.assert_array_equal(batches[0].loss_mask, [False, True, True, False, True])


def test_packed_batch_validation():
    bad = PackedBatch(
        token_ids=np.array([1, 2, 3]),
        segment_ids=np.array([0, 0, 1]),
        loss_mask=np.array([True, True, True]),
        positions=np.array([0, 1, 1]),  # segment 1 must restart at 0
    )
    with pytest.raises(ValueError, match="segment starts"):
        bad.validate()


# -- attention mask ------------------------------------------------------------------


def test_attention_mask_single_segment():
    np.testing.assert_array_equal(
        build_attention_mask([0, 0, 0]), np.tril(np.ones((3, 3), dtype=bool))
    )


def test_attention_mask_block_diagonal():
    mask = build_attention_mask([0, 0, 1, 1])
    tri = np.tril(np.ones((2, 2), dtype=bool))
    expected = np.zeros((4, 4), dtype=bool)
    expected[:2, :2] = tri
    expected[2:, 2:] = tri
    np.testing.assert_array_equal(mask, expected)


def test_attention_mask_never_future():
    rng = np.random.default_rng(0)
    for _ in range(20):
        segs = np.sort(rng.integers(0, 4, size=12))
        mask = build_attention_mask(segs)
        assert not np.triu(mask, k=1).any()


def test_loss_positions_attend_within_segment_only():
    """Positions contributing loss never see tokens outside their segment."""
    tok = chat_tok()
    rendered = [
        render_chat(sample(("user", "hi"), ("assistant", "fine")), tok),
        render_chat(sample(("user", "how"), ("assistant", "thanks")), tok),
    ]
    pairs = [(r.token_ids, build_loss_mask(r)) for r in rendered]
    batch = pack_samples(pairs, max_len=64)[0]
    att = build_attention_mask(batch.segment_ids)
    for i in np.flatnonzero(batch.loss_mask):
        visible = np.flatnonzero(att[i])
        assert np.all(batch.segment_ids[visible] == batch.segment_ids[i])


# -- packing equivalence (the module's central property) ------------------------------


def test_packing_equivalence_toy_model():
    cfg = ModelConfig(
        n_layers=2, d_model=8, n_heads=2, n_kv_heads=1, head_size=4, d_ff=16,
        vocab_size=32, rope_theta=10000.0, native_ctx=64, extended_ctx=256,
        rmsnorm_eps=1e-6,
    )
    rng = named_rng(7, "packing-equivalence")
    ckpt64 = init_params(cfg, rng, dtype=np.float64)
    for trial in range(5):
        lengths = rng.integers(2, 7, size=int(rng.integers(2, 4)))
        seqs = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
        pairs = [(s, np.ones(len(s), dtype=bool)) for s in seqs]
        batch = pack_samples(pairs, max_len=int(sum(lengths)))[0]
        packed = forward(ckpt64, batch.token_ids, batch.segment_ids, batch.positions).numpy()
        offset = 0
        for seq in seqs:
            alone = forward(ckpt64, seq).numpy()
            np.testing.assert_allclose(
                packed[offset : offset + len(seq)], alone, atol=1e-9
            )
            offset += len(seq)


def test_packing_equivalence_float32():
    cfg = ModelConfig(
        n_layers=1, d_model=8, n_heads=2, n_kv_heads=1, head_size=4, d_ff=16,
        vocab_size=16, rope_theta=10000.0, native_ctx=64, extended_ctx=256,
        rmsnorm_eps=1e-6,
    )
    rng = named_rng(8, "packing-equivalence-32")
    ckpt = init_params(cfg, rng, dtype=np.float32)
    seqs = [rng.integers(0, 16, size=4), rng.integers(0, 16, size=5)]
    pairs = [(s, np.ones(len(s), dtype=bool)) for s in seqs]
    batch = pack_samples(pairs, max_len=9)[0]
    packed = forward(ckpt, batch.token_ids, batch.segment_ids, batch.positions).numpy()
    np.testing.assert_allclose(packed[:4], forward(ckpt, seqs[0]).numpy(), atol=1e-5)
    np.testing.assert_allclose(packed[4:], forward(ckpt, seqs[1]).numpy(), atol=1e-5)
