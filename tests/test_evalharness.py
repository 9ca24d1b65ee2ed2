"""Eval harness tests: scoring oracles, metric formulas, suite determinism.

Cached choice scoring is checked against the per-choice reference,
``sequence_logprobs`` over context + choice (one ``forward`` each): within
abs 1e-12 in float64 and rel 1e-6 in float32, with duplicate choices tying
exactly."""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import evalharness
from forge.decode import prefill
from forge.evalharness import (
    EvalReport,
    Task,
    append_monitoring_row,
    build_prompt,
    generate_greedy,
    levenshtein,
    load_suite,
    load_task_items,
    loglikelihood_choice,
    metric_eval,
    normalize_score,
    run_suite,
    run_task,
    sequence_logprobs,
)
from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng

VOCAB = 16
MARKER = 7


def toy_config(**kw):
    base = dict(
        n_layers=2, d_model=8, n_heads=2, n_kv_heads=1, head_size=4,
        d_ff=16, vocab_size=VOCAB, rope_theta=1e4, native_ctx=64,
        extended_ctx=256, rmsnorm_eps=1e-6,
    )
    base.update(kw)
    return ModelConfig(**base)


def random_ckpt(seed=0):
    return init_params(toy_config(), named_rng(seed, "eval-test"), dtype=np.float64)


def marker_ckpt():
    """Every position predicts MARKER: all weights zero except a constant
    embedding, identity final norm, and a one-hot lm_head column."""
    ckpt = init_params(toy_config(), named_rng(0, "probe"), dtype=np.float64)
    for name, p in ckpt.params.items():
        p.data[...] = 0.0
    ckpt.params["embed.tok"].data[...] = 1.0
    ckpt.params["final_norm.g"].data[...] = 1.0
    ckpt.params["lm_head"].data[:, MARKER] = 1.0
    return ckpt


@lru_cache(maxsize=None)
def oracle_ckpt(dtype):
    """Weights but the norm gains at 4x init scale: log-probs far from
    uniform, so a wrong row, position or cache entry moves a score, and every
    choice score below -2, so a relative tolerance stays meaningful."""
    ckpt = init_params(toy_config(), named_rng(0, "eval-oracle"), dtype=dtype)
    for name, p in ckpt.params.items():
        if not name.endswith(".g"):
            p.data *= dtype(4)
    return ckpt


# --- loglikelihood_choice ---

token_ids = st.integers(0, VOCAB - 1)


@st.composite
def choice_cases(draw):
    """(context, choices, cut): cut 0 scores without a prefix, 0 < cut <
    len(context) from a shorter one, cut == len(context) from the context."""
    context = draw(st.lists(token_ids, min_size=1, max_size=12))
    length = draw(st.one_of(st.none(), st.integers(1, 4)))  # None mixes lengths
    lengths = st.integers(1, 5) if length is None else st.just(length)
    choices = draw(st.lists(lengths.flatmap(lambda n: st.lists(token_ids, min_size=n, max_size=n)),
                            min_size=2, max_size=5))
    if draw(st.booleans()):
        choices.insert(draw(st.integers(0, len(choices))), choices[draw(st.integers(0, len(choices) - 1))])
    return context, choices, draw(st.integers(0, len(context)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float64, np.float32]), choice_cases())
def test_cached_choice_scores_match_per_choice_teacher_forcing(dtype, case):
    context, choices, cut = case
    ckpt = oracle_ckpt(dtype)
    prefix = None if cut == 0 else (context[:cut], prefill(ckpt, context[:cut])[1])
    idx, scores = loglikelihood_choice(ckpt, context, choices, prefix)
    want = [sequence_logprobs(ckpt, context + c)[len(context) - 1 :].sum() for c in choices]
    assert scores.dtype == np.float64
    if dtype == np.float64:
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(scores, want, rtol=1e-6, atol=0)
    for k, choice in enumerate(choices):
        assert scores[k] == scores[choices.index(choice)]  # duplicates tie exactly
    assert idx == int(np.argmax(scores))
    if prefix is not None:
        assert prefix[1].length == cut  # scoring extends a copy


def test_prefix_must_start_the_context():
    ckpt = random_ckpt()
    prefix = ([1, 2], prefill(ckpt, [1, 2])[1])
    with pytest.raises(ValueError, match="prefix"):
        loglikelihood_choice(ckpt, [1, 3, 4], [[5], [6]], prefix)
    with pytest.raises(ValueError, match="prefix"):  # longer than the context
        loglikelihood_choice(ckpt, [1], [[5], [6]], prefix)


def test_run_task_prefills_the_exemplar_block_once(monkeypatch):
    calls, real = [], evalharness.prefill

    def counted(ckpt, tokens):
        calls.append(len(tokens))
        return real(ckpt, tokens)

    monkeypatch.setattr(evalharness, "prefill", counted)
    task = Task("t", ll_items(8), mode="loglikelihood", metric="accuracy", n_shot=5)
    run_task(random_ckpt(), task)
    assert calls == [len(evalharness.exemplar_block(task))]
    calls.clear()
    run_task(random_ckpt(), Task("t", ll_items(3), mode="loglikelihood", metric="accuracy"))
    assert calls == []


def test_logprobs_are_nonpositive():
    ckpt = random_ckpt()
    _, scores = loglikelihood_choice(ckpt, [1, 2, 3], [[4], [5, 6], [7, 8, 9]])
    assert np.all(scores <= 0)


def test_identical_choices_tie_to_lowest_index():
    ckpt = random_ckpt()
    idx, scores = loglikelihood_choice(ckpt, [1, 2], [[3, 4], [3, 4], [3, 4]])
    assert idx == 0
    assert scores[0] == scores[1] == scores[2]


def test_marker_probe_choice_wins():
    ckpt = marker_ckpt()
    idx, scores = loglikelihood_choice(ckpt, [1, 2, 3], [[4], [MARKER], [5]])
    assert idx == 1
    assert scores[1] > scores[0]
    assert scores[1] > scores[2]


def test_choice_scores_do_not_depend_on_other_choices():
    ckpt = random_ckpt()
    ctx = [1, 2, 3]
    _, s3 = loglikelihood_choice(ckpt, ctx, [[4, 5], [6], [7, 8, 9]])
    _, s2 = loglikelihood_choice(ckpt, ctx, [[4, 5], [6]])
    np.testing.assert_allclose(s3[:2], s2, rtol=0, atol=0)


def test_choice_score_matches_manual_teacher_forcing():
    ckpt = random_ckpt()
    ctx, choice = [1, 2, 3], [4, 5]
    _, scores = loglikelihood_choice(ckpt, ctx, [choice, [6]])
    lp = sequence_logprobs(ckpt, ctx + choice)
    assert scores[0] == pytest.approx(lp[-len(choice):].sum(), abs=1e-12)


@pytest.mark.parametrize("ids", [[1.5, 2.7, 3.2], [True, False, True]])
def test_sequence_logprobs_refuses_ids_that_are_not_integers(ids):
    # a cast to int64 would score [1, 2, 3] or [1, 0, 1]
    with pytest.raises(ValueError, match="integers"):
        sequence_logprobs(random_ckpt(), ids)


def test_choice_requires_two_options_and_nonempty():
    ckpt = random_ckpt()
    with pytest.raises(ValueError):
        loglikelihood_choice(ckpt, [1], [[2]])
    with pytest.raises(ValueError):
        loglikelihood_choice(ckpt, [1], [[2], []])
    with pytest.raises(ValueError):
        loglikelihood_choice(ckpt, [], [[2], [3]])


# --- generate_greedy ---

def test_generate_single_token():
    ckpt = random_ckpt()
    out = generate_greedy(ckpt, [1, 2], max_new=1)
    assert len(out) == 1
    assert 0 <= out[0] < VOCAB


def test_generate_immediate_stop_is_empty():
    ckpt = marker_ckpt()
    assert generate_greedy(ckpt, [1, 2], max_new=8, stop=[MARKER]) == []


def test_generate_marker_probe_repeats_marker():
    ckpt = marker_ckpt()
    assert generate_greedy(ckpt, [1], max_new=4) == [MARKER] * 4


def test_generate_is_greedy_fixed_point():
    # every emitted token must be the argmax when re-scoring the full sequence
    ckpt = random_ckpt(seed=3)
    ctx = [1, 5, 2]
    out = generate_greedy(ckpt, ctx, max_new=6)
    seq = ctx + out
    logits = forward(ckpt, seq).numpy()
    for k, tok in enumerate(out):
        step_pos = len(ctx) + k - 1
        assert int(np.argmax(logits[step_pos])) == tok


def test_generate_rejects_bad_budget():
    with pytest.raises(ValueError):
        generate_greedy(random_ckpt(), [1], max_new=0)


# --- metrics ---

def oracle_levenshtein(a, b):
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
    return d(len(a), len(b))


def test_levenshtein_kitten_sitting():
    assert levenshtein("kitten", "sitting") == 3
    score = metric_eval("levenshtein", ["kitten"], ["sitting"])
    assert score == pytest.approx(1 - 3 / 7)


@settings(max_examples=120)
@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_levenshtein_matches_bruteforce(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


@given(
    st.text(alphabet="ab", max_size=6),
    st.text(alphabet="ab", max_size=6),
    st.text(alphabet="ab", max_size=6),
)
def test_levenshtein_is_a_metric(a, b, c):
    assert levenshtein(a, a) == 0
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_accuracy_and_exact_match():
    assert metric_eval("accuracy", [1, 2, 3, 4], [1, 2, 0, 4]) == 0.75
    assert metric_eval("exact_match", [(1, 2), (3,)], [(1, 2), (3, 4)]) == 0.5


def test_f1_binary_confusion_example():
    # P = 1, R = 1/2
    assert metric_eval("f1_binary", [1, 0, 0, 0], [1, 1, 0, 0]) == pytest.approx(2 / 3)


def test_f1_binary_degenerate_is_zero():
    assert metric_eval("f1_binary", [0, 0], [1, 1]) == 0.0


def test_f1_macro_hand_example():
    golds = [0, 0, 1, 2]
    preds = [0, 1, 1, 1]
    # class 0: 2/3; class 1: 1/2; class 2: 0
    assert metric_eval("f1_macro", preds, golds) == pytest.approx((2 / 3 + 1 / 2 + 0) / 3)


def test_f1_macro_ignores_classes_absent_from_golds():
    # prediction-only class 9 contributes nothing
    assert metric_eval("f1_macro", [9, 1], [1, 1]) == pytest.approx(2 / 3)


@pytest.mark.parametrize("metric", ["accuracy", "f1_binary", "f1_macro", "levenshtein", "exact_match"])
def test_perfect_predictions_score_one(metric):
    golds = [1, 0, 1] if metric != "levenshtein" else ["ab", "c", "abc"]
    assert metric_eval(metric, list(golds), list(golds)) == 1.0


def test_metric_eval_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        metric_eval("accuracy", [1], [1, 2])
    with pytest.raises(ValueError):
        metric_eval("accuracy", [], [])
    with pytest.raises(ValueError):
        metric_eval("bleu", [1], [1])


@given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=12))
def test_f1_macro_bounded(golds):
    rng = np.random.default_rng(0)
    preds = list(rng.integers(0, 3, size=len(golds)))
    score = metric_eval("f1_macro", preds, golds)
    assert 0.0 <= score <= 1.0


# --- normalization ---

def test_normalize_examples():
    assert normalize_score(0.25, 0.25) == 0.0
    assert normalize_score(1.0, 0.25) == 1.0
    assert normalize_score(0.55, 0.25) == pytest.approx(0.4)
    assert normalize_score(0.1, 0.25) < 0  # below chance, not clipped


def test_normalize_rejects_baseline_at_or_above_one():
    with pytest.raises(ValueError):
        normalize_score(0.5, 1.0)
    with pytest.raises(ValueError):
        normalize_score(0.5, 1.5)


# --- task construction and few-shot prompts ---

def ll_items(n, offset=0):
    return tuple(
        {"context": [1 + offset, 2 + k], "choices": [[3], [4]], "gold": k % 2}
        for k in range(n)
    )


def test_task_validation():
    with pytest.raises(ValueError):
        Task("t", ll_items(3), mode="chat", metric="accuracy")
    with pytest.raises(ValueError):
        Task("t", ll_items(3), mode="loglikelihood", metric="bleu")
    with pytest.raises(ValueError):
        Task("t", ll_items(3), mode="loglikelihood", metric="accuracy", n_shot=3)
    with pytest.raises(ValueError):
        Task("t", ll_items(3), mode="loglikelihood", metric="accuracy", baseline=1.0)
    with pytest.raises(ValueError):  # exemplars would swallow every item
        Task("t", ll_items(5), mode="loglikelihood", metric="accuracy", n_shot=5)
    with pytest.raises(ValueError):  # single choice
        Task("t", ({"context": [1], "choices": [[2]], "gold": 0},),
             mode="loglikelihood", metric="accuracy")


def test_five_shot_prompt_structure():
    task = Task("t", ll_items(7), mode="loglikelihood", metric="accuracy", n_shot=5)
    assert len(task.exemplars()) == 5
    assert len(task.scored_items()) == 2
    item = task.scored_items()[0]
    prompt = build_prompt(task, item)
    expected = []
    for ex in task.items[:5]:
        expected += ex["context"] + ex["choices"][ex["gold"]]
    expected += item["context"]
    assert prompt == expected


def test_zero_shot_prompt_is_bare_context():
    task = Task("t", ll_items(3), mode="loglikelihood", metric="accuracy", n_shot=0)
    item = task.items[0]
    assert build_prompt(task, item) == item["context"]


def test_run_task_marker_probe_scores_perfectly():
    # every item's gold choice is the marker token, which the probe prefers
    items = tuple(
        {"context": [1, 2 + k], "choices": [[5], [MARKER]], "gold": 1} for k in range(4)
    )
    task = Task("probe", items, mode="loglikelihood", metric="accuracy", baseline=0.5)
    assert run_task(marker_ckpt(), task) == 1.0


def test_run_task_generate_mode():
    items = tuple(
        {"context": [1 + k], "gold": [MARKER, MARKER]} for k in range(3)
    )
    task = Task("gen", items, mode="generate", metric="exact_match", max_new=2)
    assert run_task(marker_ckpt(), task) == 1.0


# --- suite runs and monitoring ---

def two_tasks():
    probe = Task(
        "probe",
        tuple({"context": [1, 2 + k], "choices": [[5], [MARKER]], "gold": 1} for k in range(4)),
        mode="loglikelihood", metric="accuracy", baseline=0.5,
    )
    gen = Task(
        "echo",
        tuple({"context": [1 + k], "gold": [MARKER]} for k in range(3)),
        mode="generate", metric="exact_match", max_new=1,
    )
    return [probe, gen]


def test_suite_average_is_mean_of_normalized():
    report = run_suite(marker_ckpt(), two_tasks(), step=0)
    normalized = [s.normalized for s in report.scores]
    assert report.average == pytest.approx(float(np.mean(normalized)))
    # probe: raw 1.0 over baseline 0.5 -> normalized 1.0; echo raw 1.0 -> 1.0
    assert normalized == [1.0, 1.0]


def test_suite_requires_tasks():
    with pytest.raises(ValueError):
        run_suite(marker_ckpt(), [], step=0)


def test_suite_report_is_byte_identical_across_reruns():
    ckpt = random_ckpt(seed=9)
    a = run_suite(ckpt, two_tasks(), step=3).to_json()
    b = run_suite(ckpt, two_tasks(), step=3).to_json()
    assert a == b
    assert a.encode() == b.encode()


def test_monitoring_csv_schema_and_append(tmp_path):
    csv_path = tmp_path / "monitor.csv"
    ckpt = marker_ckpt()
    run_suite(ckpt, two_tasks(), step=0, csv_path=csv_path)
    run_suite(ckpt, two_tasks(), step=100, csv_path=csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,probe,echo,average"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "100"
    # identical checkpoint: identical scores at both steps
    assert lines[1].split(",")[1:] == lines[2].split(",")[1:]


def test_monitoring_csv_rejects_header_drift(tmp_path):
    csv_path = tmp_path / "monitor.csv"
    report = run_suite(marker_ckpt(), two_tasks(), step=0, csv_path=csv_path)
    renamed = EvalReport(
        step=1,
        scores=(report.scores[0],),  # fewer columns than the existing file
        average=report.average,
    )
    with pytest.raises(ValueError):
        append_monitoring_row(csv_path, renamed)


# --- file loading ---

def test_load_task_items_and_suite(tmp_path):
    items_path = tmp_path / "probe.jsonl"
    with open(items_path, "w") as f:
        for k in range(4):
            f.write(json.dumps({"context": [1, 2 + k], "choices": [[5], [MARKER]], "gold": 1}) + "\n")
    manifest_path = tmp_path / "suite.json"
    manifest_path.write_text(json.dumps({
        "tasks": [{"name": "probe", "file": "probe.jsonl", "mode": "loglikelihood",
                   "metric": "accuracy", "baseline": 0.5}]
    }))
    tasks = load_suite(manifest_path)
    assert len(tasks) == 1
    assert tasks[0].name == "probe"
    assert run_task(marker_ckpt(), tasks[0]) == 1.0


def test_load_task_items_names_offending_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"context": [1], "choices": [[2],[3]], "gold": 0}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        load_task_items(path)


def test_load_suite_rejects_incomplete_entry(tmp_path):
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps({"tasks": [{"name": "x", "file": "x.jsonl"}]}))
    with pytest.raises(ValueError, match="mode"):
        load_suite(manifest)


@pytest.mark.parametrize("manifest", [[], {"tasks": [5]}])
def test_load_suite_rejects_non_object_manifest_or_entry(tmp_path, manifest):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"suite\.json: "):
        load_suite(path)
