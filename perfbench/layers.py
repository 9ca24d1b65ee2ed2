"""Per-layer figures from the spans of a traced run.

Units say what each figure is per: ``ms/call`` is the mean time of one
call of that function (inclusive of the spans inside it, except
``model.attn_ms`` and ``model.forward_self_ms``, which are self time);
``/op`` figures are per unit of workload work (an optimizer step, an eval
item, a corpus pass). ``*.self_frac`` splits the traced wall time between
the modules' self times and ``trace.unwrapped_frac``, the time outside
every span (mostly the generator's own code during set-up, since the
``cli.run`` spans must cover each iteration's measured stage time). A
layer the workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from probe import PROBE_METRICS
from spans import MODULES

SPAN_METRICS = [
    ("tensor.backward_ms", "ms/call"),
    ("tensor.backward_calls", "calls/op"),
    ("tensor.tape_nodes", "nodes/call"),
    ("model.forward_ms", "ms/call"),
    ("model.forward_calls", "calls/op"),
    ("model.forward_tokens", "tokens/call"),
    ("model.forward_taped_frac", "frac"),
    ("model.attn_ms", "ms/call"),
    ("model.rope_ms", "ms/call"),
    ("model.rmsnorm_ms", "ms/call"),
    ("model.ffn_ms", "ms/call"),
    ("model.embed_ms", "ms/call"),
    ("model.forward_self_ms", "ms/call"),
    ("train.sample_ms", "ms/call"),
    ("train.sampled_tokens", "tokens/op"),
    ("train.forward_tokens_per_sampled_token", "ratio"),
    ("train.score_ms", "ms/call"),
    ("train.policy_ms", "ms/call"),
    ("train.loss_ms", "ms/call"),
    ("train.optim_ms", "ms/op"),
    ("train.zero_signal_group_frac", "frac"),
    ("train.response_len_mean", "tokens"),
    ("train.stop_rate", "frac"),
    ("verifiers.verify_ms", "ms/call"),
    ("verifiers.verify_calls", "calls/op"),
    ("verifiers.reward_rate", "frac"),
    ("evalharness.choice_ms", "ms/call"),
    ("evalharness.generate_ms", "ms/call"),
    ("evalharness.generated_tokens", "tokens/call"),
    ("evalharness.forward_tokens_per_item", "tokens/item"),
    ("evalharness.shared_prefix_frac", "frac"),
    ("datapipe.scrub_ms", "ms/call"),
    ("datapipe.scrub_chars", "chars/op"),
    ("datapipe.encode_ms", "ms/op"),
    ("datapipe.encode_chars", "chars/op"),
    ("datapipe.render_ms", "ms/call"),
    ("datapipe.pack_ms", "ms/call"),
    ("datapipe.pack_fill_frac", "frac"),
    ("datapipe.pii_found", "count/op"),
    ("checkpoint.save_ms", "ms/call"),
    ("checkpoint.load_ms", "ms/call"),
    ("checkpoint.bytes", "bytes"),
    ("upscale.depth_upscale_ms", "ms/call"),
    ("cli.validate_ms", "ms/call"),
] + [(f"{m}.self_frac", "frac") for m in MODULES] + [
    ("trace.unwrapped_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans_per_op", "count/op"),
]

PER_LAYER = SPAN_METRICS + PROBE_METRICS

ITEM_SPANS = ("evalharness.loglikelihood_choice", "evalharness.generate_greedy")


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _shared_prefix(seqs) -> tuple[int, int]:
    """(positions already forwarded as a prefix of an earlier sequence of
    the same item, positions forwarded)."""
    shared = 0
    for k, s in enumerate(seqs):
        best = 0
        for prev in seqs[:k]:
            n = min(len(s), len(prev))
            diff = np.flatnonzero(s[:n] != prev[:n])
            best = max(best, int(diff[0]) if diff.size else n)
        shared += best
    return shared, sum(len(s) for s in seqs)


def span_metrics(spans, own, n_ops: int, group_size: int | None, wall: float,
                 overhead: float) -> dict:
    """spans: set-up and traced iterations of one recorder; own: their
    self times; wall: the traced time those spans fall in."""
    rep = [i for i, s in enumerate(spans) if s.it != "setup"]
    all_by, rep_by = defaultdict(list), defaultdict(list)
    for s in spans:
        all_by[s.name].append(s)
    for i in rep:
        rep_by[spans[i].name].append(spans[i])

    def ms(name, pool=all_by):
        return _mean([s.dur for s in pool[name]]) * 1e3

    def per_op(x):
        return _ratio(x, n_ops)

    m = {}
    back = rep_by["tensor.backward"]
    m["tensor.backward_ms"] = ms("tensor.backward", rep_by)
    m["tensor.backward_calls"] = per_op(len(back))
    m["tensor.tape_nodes"] = _mean([s.fact for s in back])

    fwd = rep_by["model.forward"]
    m["model.forward_ms"] = ms("model.forward", rep_by)
    m["model.forward_calls"] = per_op(len(fwd))
    m["model.forward_tokens"] = _mean([s.fact[0] for s in fwd])
    m["model.forward_taped_frac"] = _mean([float(s.fact[1]) for s in fwd])
    own_of = {id(s): own[i] for i, s in enumerate(spans)}
    m["model.attn_ms"] = _mean([own_of[id(s)] for s in rep_by["model.gqa_attention"]]) * 1e3
    m["model.rope_ms"] = ms("model.apply_rope", rep_by)
    m["model.rmsnorm_ms"] = ms("model.rms_norm", rep_by)
    m["model.ffn_ms"] = ms("model.swiglu_ffn", rep_by)
    m["model.embed_ms"] = ms("tensor.embedding", rep_by)
    m["model.forward_self_ms"] = _mean([own_of[id(s)] for s in fwd]) * 1e3

    samples = rep_by["train.sample_response"]
    sampled = sum(s.fact[0] for s in samples)
    m["train.sample_ms"] = ms("train.sample_response", rep_by)
    m["train.sampled_tokens"] = per_op(sampled)
    in_sampling = sum(s.fact[0] for s in fwd
                      if s.parent >= 0 and spans[s.parent].name == "train.sample_response")
    m["train.forward_tokens_per_sampled_token"] = _ratio(in_sampling, sampled)
    scored = rep_by["train.token_logprobs"]
    m["train.score_ms"] = _mean([s.dur for s in scored if not s.fact]) * 1e3
    m["train.policy_ms"] = _mean([s.dur for s in scored if s.fact]
                                 + [s.dur for s in rep_by["train.sft_batch_loss"]]) * 1e3
    m["train.loss_ms"] = _mean([s.dur for s in rep_by["train.sft_loss"] + rep_by["train.grpo_objective"]]) * 1e3
    m["train.optim_ms"] = per_op(sum(s.dur for s in rep_by["train.adamw_step"] + rep_by["train.clip_grad_norm"]) * 1e3)
    rewards = [s.fact for s in rep_by["verifiers.verify"]]
    groups = [rewards[k:k + group_size] for k in range(0, len(rewards), group_size)] if group_size else []
    m["train.zero_signal_group_frac"] = _mean([float(len(set(g)) == 1) for g in groups])
    m["train.response_len_mean"] = _mean([s.fact[0] for s in samples])
    m["train.stop_rate"] = _mean([float(s.fact[1]) for s in samples])

    m["verifiers.verify_ms"] = ms("verifiers.verify", rep_by)
    m["verifiers.verify_calls"] = per_op(len(rewards))
    m["verifiers.reward_rate"] = _mean(rewards)

    items = [i for i in rep if spans[i].name in ITEM_SPANS]
    per_item = defaultdict(list)
    for s in fwd:
        if len(s.fact) < 3:
            continue
        up = s.parent
        while up >= 0 and spans[up].name not in ITEM_SPANS:
            up = spans[up].parent
        per_item[up].append(s.fact[2])
    shared = [_shared_prefix(per_item[i]) for i in items]
    gens = rep_by["evalharness.generate_greedy"]
    m["evalharness.choice_ms"] = ms("evalharness.loglikelihood_choice", rep_by)
    m["evalharness.generate_ms"] = ms("evalharness.generate_greedy", rep_by)
    m["evalharness.generated_tokens"] = _mean([len(s.fact) for s in gens])
    m["evalharness.forward_tokens_per_item"] = _ratio(sum(t for _, t in shared), len(items))
    m["evalharness.shared_prefix_frac"] = _ratio(sum(a for a, _ in shared), sum(t for _, t in shared))

    scrubs = rep_by["datapipe.scrub"]
    packs = all_by["datapipe.pack_samples"]
    m["datapipe.scrub_ms"] = ms("datapipe.scrub", rep_by)
    m["datapipe.scrub_chars"] = per_op(sum(s.fact[0] for s in scrubs))
    m["datapipe.encode_ms"] = per_op(sum(s.dur for s in rep_by["datapipe.encode"]) * 1e3)
    m["datapipe.encode_chars"] = per_op(sum(s.fact for s in rep_by["datapipe.encode"]))
    m["datapipe.render_ms"] = ms("datapipe.render_chat")
    m["datapipe.pack_ms"] = ms("datapipe.pack_samples")
    m["datapipe.pack_fill_frac"] = _ratio(sum(s.fact[0] for s in packs), sum(s.fact[1] for s in packs))
    m["datapipe.pii_found"] = per_op(sum(s.fact[1] for s in scrubs))

    m["checkpoint.save_ms"] = ms("checkpoint.save_checkpoint")
    m["checkpoint.load_ms"] = ms("checkpoint.load_checkpoint")
    m["checkpoint.bytes"] = _mean([s.fact for s in all_by["checkpoint.save_checkpoint"]])
    m["upscale.depth_upscale_ms"] = ms("upscale.depth_upscale")
    m["cli.validate_ms"] = ms("cli.validate_config")

    module_self = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        module_self[s.name.split(".", 1)[0]] += own[i]
    roots = sum(s.dur for s in spans if s.parent < 0)
    for mod in MODULES:
        m[f"{mod}.self_frac"] = _ratio(module_self[mod], wall)
    m["trace.unwrapped_frac"] = _ratio(wall - roots, wall)
    m["trace.overhead_frac"] = overhead
    m["trace.spans_per_op"] = per_op(len(rep))
    return m


COVER_MIN = 0.99  # share of an iteration's stage time its cli.run spans must cover


def coverage_failures(it) -> list[str]:
    """The iteration's root spans (its ``cli.run`` calls) must lie within
    the stage time measured around those calls and cover nearly all of it;
    otherwise the spans miss work, or hold spans of another iteration."""
    roots = [s for s in it.spans if s.parent < 0]
    covered = sum(s.dur for s in roots)
    if any(s.name != "cli.run" for s in roots) or not COVER_MIN * it.wall <= covered <= it.wall:
        return [f"root spans {sorted({s.name for s in roots})} cover {covered:.6f} s "
                f"of {it.wall:.6f} s measured stage time"]
    return []
