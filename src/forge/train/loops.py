"""Training loops: SFT over packed batches, preference tuning against a
frozen reference, and group-relative policy optimization with verifiable
rewards.

All three loops share one driver, ``_run_steps``: it maps each micro unit to
its item, adds the units' gradients in unit order, clips by global norm, takes
an AdamW step and appends one CSV row per optimizer step. The global batch of
the full-scale recipe maps to accumulation x micro-batch on one worker here.
"""

from __future__ import annotations

import csv
import ctypes
import platform
from dataclasses import dataclass, field

import numpy as np

from .. import tensor as T
from ..datapipe.chat import ChatSample, build_loss_mask, messages_from, render_chat
from ..datapipe.packing import PackedBatch
from ..datapipe.records import read_records
from ..decode import bucket_logits, decode, prefill
from ..model import Checkpoint, check_token_ids, forward, is_group
from ..rng import named_rng
from ..tensor import Graph, Tensor
from ..verifiers import check_truth, verify
from .losses import GrpoGroup, PreferenceBatch, dpo_loss, dpop_loss, grpo_objective, kl_k3, sft_loss
from .optim import adamw_step, clip_grad_norm, init_state
from .schedule import ScheduleSpec, lr_at


class NumericError(RuntimeError):
    """Loss or gradient left the finite range; the run cannot continue."""


@dataclass(frozen=True)
class TrainSettings:
    spec: ScheduleSpec
    steps: int
    accum: int = 1
    weight_decay: float = 0.0
    max_grad_norm: float = 1.0

    def __post_init__(self):
        if self.steps < 1 or self.accum < 1:
            raise ValueError("steps and accum must be >= 1")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.steps > self.spec.total_steps:
            raise ValueError(
                f"steps ({self.steps}) exceeds schedule total_steps ({self.spec.total_steps})"
            )


class _StepWriter:
    """Incremental CSV step log; floats via repr for stable round trips."""

    def __init__(self, path, fields):
        self.fields = fields
        self._f = None
        if path is not None:
            self._f = open(path, "w", newline="", encoding="utf-8")
            self._w = csv.writer(self._f)
            self._w.writerow(fields)

    def write(self, row: dict) -> None:
        if self._f is None:
            return
        self._w.writerow([row[k] if isinstance(row[k], int) else repr(row[k]) for k in self.fields])
        self._f.flush()

    def close(self) -> None:
        if self._f is not None:
            self._f.close()


def _check_finite(value: float, step: int, what: str) -> None:
    if not np.isfinite(value):
        raise NumericError(f"step {step}: {what} is not finite ({value})")


def keep_freed_pages() -> None:
    """On glibc, keep the pages a freed tape or eval item held for the next one,
    instead of trimming them and faulting them back in. Setting either threshold
    turns glibc's dynamic mmap threshold off, so both are set; 32 MiB is its ceiling."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


def _backprop_micro(ckpt: Checkpoint, build, sums, step: int):
    """Build one micro unit's loss on its own tape, backpropagate, and add the
    parameter gradients into ``sums``. Returns (sums, loss value, extras); the
    tape dies on return. On the first call (``sums`` None) the unit's
    gradients become the sums, cast to the parameter dtype, and only a
    parameter the loss does not reach gets zeros: no second set of
    parameter-sized arrays is made. A gradient that is a view, or the array
    already taken for another parameter, is copied, so no two sums share
    memory."""
    with Graph() as g:
        loss, extras = build()
        val = float(loss.data)
        _check_finite(val, step, "loss")
        g.backward(loss)
    if sums is None:
        sums, taken = {}, set()
        for name, p in ckpt.params.items():
            grad = g.grad(p)
            if grad is None:
                sums[name] = np.zeros_like(p.data)
            else:
                sums[name] = grad.astype(p.data.dtype, copy=grad.base is not None or id(grad) in taken)
                taken.add(id(grad))
        return sums, val, extras
    for name, p in ckpt.params.items():
        grad = g.grad(p)
        if grad is not None:
            sums[name] += grad
    return sums, val, extras


def _run_steps(ckpt: Checkpoint, settings: TrainSettings, items, per_step: int, unit, log_fields, log_path):
    """Shared optimizer driver, and the only code that maps a unit to its item.

    Unit j of step s calls ``unit(s, j, items[(s * per_step + j) % len(items)])``
    while no tape records. It does the unit's tape-free work and returns a
    function that builds (scalar loss Tensor, extras dict) under a fresh tape.
    The units' gradients are added in unit order and averaged, and so are the
    loss and the extras in the step row.
    """
    keep_freed_pages()
    state = init_state(ckpt.params)
    writer = _StepWriter(log_path, log_fields)
    rows = []
    try:
        for step in range(settings.steps):
            lr = lr_at(settings.spec, step)
            grads, loss_sum, extra_sums = None, 0.0, {}
            for j in range(per_step):
                build = unit(step, j, items[(step * per_step + j) % len(items)])
                grads, val, extras = _backprop_micro(ckpt, build, grads, step)
                loss_sum += val
                for k, v in extras.items():
                    extra_sums[k] = extra_sums.get(k, 0.0) + v
            if per_step > 1:  # x / 1 is x: one unit's sums are already its mean
                for name in grads:
                    grads[name] /= per_step
            try:
                grads, norm = clip_grad_norm(grads, settings.max_grad_norm)
            except ValueError as e:  # non-finite gradient
                raise NumericError(f"step {step}: {e}") from None
            adamw_step(ckpt.params, grads, state, lr, weight_decay=settings.weight_decay)
            row = {"step": step, "lr": lr, "loss": loss_sum / per_step, "grad_norm": norm}
            for k, v in extra_sums.items():
                row[k] = v / per_step
            rows.append(row)
            writer.write(row)
    finally:
        writer.close()
    return rows


# --- supervised fine-tuning ---

def sft_batch_loss(ckpt: Checkpoint, batch: PackedBatch) -> Tensor:
    """Next-token cross-entropy on assistant content, never across segment
    boundaries."""
    if len(batch) < 2:
        raise ValueError("packed batch too short to shift")
    logits = forward(ckpt, batch.token_ids, batch.segment_ids, batch.positions)
    shifted = T.narrow(logits, 0, 0, len(batch) - 1)
    targets = batch.token_ids[1:]
    mask = batch.loss_mask[1:] & (batch.segment_ids[:-1] == batch.segment_ids[1:])
    return sft_loss(shifted, targets, mask)


def train_sft(ckpt: Checkpoint, batches, settings: TrainSettings, log_path=None):
    """Cycle packed batches in order; one micro unit per batch."""
    if not batches:
        raise ValueError("no batches to train on")
    return _run_steps(ckpt, settings, batches, settings.accum,
                      lambda step, j, batch: lambda: (sft_batch_loss(ckpt, batch), {}),
                      ["step", "lr", "loss", "grad_norm"], log_path)


# --- preference tuning ---

def load_preference_dataset(path) -> list[dict]:
    """Line-delimited {prompt, chosen, rejected}, each a chat-message list."""
    return read_records(
        path,
        lambda rec: {side: messages_from(rec[side]) for side in ("prompt", "chosen", "rejected")},
        "preference record",
    )


def encode_preference_pairs(pairs, tok) -> list[dict]:
    """Token ids and response masks for both completions of each pair. The
    response mask selects assistant content after the shared prompt only."""
    out = []
    for pair in pairs:
        prompt_len = len(render_chat(ChatSample(list(pair["prompt"])), tok).token_ids)
        enc = {}
        for side in ("chosen", "rejected"):
            rendered = render_chat(ChatSample(list(pair["prompt"]) + list(pair[side])), tok)
            mask = build_loss_mask(rendered)
            mask[:prompt_len] = False
            if not mask.any():
                raise ValueError(f"{side} completion has no assistant content")
            enc[f"tokens_{side}"] = rendered.token_ids
            enc[f"mask_{side}"] = mask
        out.append(enc)
    return out


def _group_target_logprobs(ckpt: Checkpoint, seqs, first: int, masks=None) -> tuple[Tensor, list[int]]:
    """``T.target_logprobs`` of tokens first.. of every sequence, in one pass
    over the group (``forward`` under a tape, else ``decode.bucket_logits`` on
    the whole sequences: the same bits), and each sequence's row count."""
    if T._current_graph() is not None:
        starts = np.cumsum([0] + [len(s) for s in seqs[:-1]])
        rows = np.concatenate([np.arange(a + first - 1, a + len(s) - 1) for a, s in zip(starts, seqs)])
        logits = forward(ckpt, seqs)[rows]
    else:
        parts = {k: out[j, first - 1 : -1] for bucket, out in bucket_logits(ckpt, seqs) for j, k in enumerate(bucket)}
        logits = np.concatenate([parts[k] for k in range(len(seqs))])
    mask = None if masks is None else np.concatenate([m[first:] for m in masks])
    picked = T.target_logprobs(logits, np.concatenate([s[first:] for s in seqs]), mask)
    return picked, [len(s) - first for s in seqs]


def _per_sequence(t: Tensor, counts) -> list[Tensor]:
    """Consecutive row ranges of t, one per count."""
    if len(counts) == 1:
        return [t]
    starts = np.cumsum([0] + list(counts[:-1]))
    return [T.narrow(t, 0, int(a), n) for a, n in zip(starts, counts)]


def _id_sequences(ckpt: Checkpoint, tokens) -> tuple[bool, list[np.ndarray]]:
    """(tokens is a group, its sequences through ``model.check_token_ids``)."""
    group = is_group(tokens)
    return group, [check_token_ids(t, ckpt.config.vocab_size) for t in (tokens if group else [tokens])]


def response_logprob(ckpt: Checkpoint, tokens, response_mask):
    """Summed log-prob of the masked tokens given everything before them.
    For a group (lists of sequences and masks, see ``model.is_group``), one
    such scalar per sequence, from one pass over the group. Differentiable
    when called under a recording tape."""
    group, seqs = _id_sequences(ckpt, tokens)
    masks = [np.asarray(m, dtype=bool) for m in (response_mask if group else [response_mask])]
    if len(masks) != len(seqs):
        raise ValueError(f"{len(seqs)} sequences but {len(masks)} masks")
    for i, (seq, mask) in enumerate(zip(seqs, masks)):
        if len(seq) < 2:
            raise ValueError(f"sequence {i} too short to score")
        if mask.shape != seq.shape:
            raise ValueError(f"sequence {i}: mask of shape {mask.shape} for {len(seq)} tokens")
        if mask[0]:
            raise ValueError(f"sequence {i}: first token has no conditioning prefix")
    picked, counts = _group_target_logprobs(ckpt, seqs, 1, masks)
    sums = [T.sum_(t) for t in _per_sequence(picked, counts)]
    return sums if group else sums[0]


def train_dpo(
    ckpt: Checkpoint,
    ref_ckpt: Checkpoint,
    encoded_pairs,
    settings: TrainSettings,
    variant: str = "dpo",
    beta: float = 0.1,
    lam_dpop: float = 5.0,
    log_path=None,
):
    """Preference loop; one micro unit per pair, reference scored once."""
    if variant not in ("dpo", "dpop"):
        raise ValueError(f"variant must be dpo or dpop, got {variant!r}")
    if not encoded_pairs:
        raise ValueError("no preference pairs to train on")
    loss_fn = dpo_loss if variant == "dpo" else dpop_loss

    def score_pair(model, enc) -> list[Tensor]:
        # chosen and rejected as one group
        return response_logprob(
            model, [enc["tokens_chosen"], enc["tokens_rejected"]], [enc["mask_chosen"], enc["mask_rejected"]],
        )

    ref_scores = [tuple(lp.item() for lp in score_pair(ref_ckpt, e)) for e in encoded_pairs]

    def pair_loss(enc, ref):
        pc, pr = score_pair(ckpt, enc)
        batch = PreferenceBatch(
            policy_chosen=T.reshape(pc, (1,)),
            policy_rejected=T.reshape(pr, (1,)),
            ref_chosen=np.array([ref[0]], dtype=pc.dtype),
            ref_rejected=np.array([ref[1]], dtype=pr.dtype),
            beta=beta,
            lam_dpop=lam_dpop,
        )
        return loss_fn(batch), {}

    return _run_steps(ckpt, settings, list(zip(encoded_pairs, ref_scores)), settings.accum,
                      lambda step, j, item: lambda: pair_loss(*item),
                      ["step", "lr", "loss", "grad_norm"], log_path)


# --- group-relative policy optimization ---

def _rl_problem(rec) -> dict:
    check_truth(rec["verifier"], rec["truth"])
    return {"prompt": messages_from(rec["prompt"]), "verifier": rec["verifier"], "truth": rec["truth"]}


def load_rl_dataset(path) -> list[dict]:
    """Line-delimited {prompt: chat messages, verifier: math|mcq|tool, truth}."""
    return read_records(path, _rl_problem, "RL record")


@dataclass
class GroupRollouts:
    """What the rollouts of one group share: ``prefill(ckpt, prompt_ids)``, the
    number of rollouts still to sample, and the rollouts the last round drew
    ahead of their ``sample_response`` calls, in order."""

    prefilled: tuple
    left: int
    drawn: list = field(default_factory=list)


def sample_response(
    ckpt: Checkpoint, prompt_ids, rng, max_tokens: int, temperature: float,
    stop_id: int, suppress=(), prefilled=None,
):
    """Temperature sampling until the stop token or the budget, drawing each
    token as ``rng.choice(vocab, p=p)`` would. The stop token, when drawn,
    stays in the returned ids so every response has at least one scored
    action; ids in suppress are never drawn.

    ``prefilled`` is the ``GroupRollouts`` of a group's rollouts, which call
    this once each, in order, with one ``rng``. When no drawn rollout is
    left, a new round reads a block of ``rng.random()`` draws, one row of
    ``max_tokens`` per rollout still to sample, without advancing ``rng``,
    and decodes those rollouts in lockstep from the group's prefill
    (``decode.decode``, one batched ``extend`` per token). Row m holds
    rollout m's draws if every rollout before it runs the full budget; the
    round keeps the rollouts up to the first that stopped early, and the
    next rounds redraw the rest from where ``rng`` then stands. Each token
    is the inverse-CDF pick ``Generator.choice`` makes with one ``random()``,
    so each call returns the next rollout and advances ``rng`` past its
    draws: the tokens and the stream's end state are those of sampling the
    rollouts one after another, for any bit generator."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    suppress = list(suppress)
    group = GroupRollouts(prefill(ckpt, prompt_ids), 1) if prefilled is None else prefilled
    if not group.drawn:
        state = rng.bit_generator.state
        uniforms = rng.random((max(group.left, 1), max_tokens))
        rng.bit_generator.state = state

        def choose(logits, live, n):
            logits = logits.astype(np.float64) / temperature
            if suppress:
                logits[:, suppress] = -np.inf
            p = np.exp(logits - logits.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            cdf = np.cumsum(p, axis=-1)
            if not np.isfinite(cdf[:, -1]).all():  # as Generator.choice; a NaN CDF would pick id 0
                raise ValueError("sampling probabilities are not finite")
            cdf /= cdf[:, -1:]
            return (cdf <= uniforms[live, n][:, None]).sum(axis=-1)

        group.drawn = decode(ckpt, group.prefilled, len(uniforms), max_tokens, choose, (stop_id,))
    resp = group.drawn.pop(0)
    group.left -= 1
    rng.random(len(resp))
    return resp


def token_logprobs(ckpt: Checkpoint, tokens, from_pos: int):
    """Per-token log-probs of tokens[from_pos:] given their prefixes; (n,).
    For a group (a list of sequences sharing from_pos, see
    ``model.is_group``), one such Tensor per sequence, from one pass over
    the group. Differentiable under a recording tape; a tape-free call runs
    on ``decode``'s kernel over the whole sequences, with the same bits."""
    group, seqs = _id_sequences(ckpt, tokens)
    for seq in seqs:
        if not (1 <= from_pos < len(seq)):
            raise ValueError(f"from_pos {from_pos} outside [1, {len(seq)})")
    picked, counts = _group_target_logprobs(ckpt, seqs, from_pos)
    out = _per_sequence(T.sum_(picked, axis=1), counts)
    return out if group else out[0]


def _response_text(tok, response_ids, stop_id: int) -> str:
    ids = list(response_ids)
    if ids and ids[-1] == stop_id:
        ids = ids[:-1]
    return tok.decode(ids)


def train_grpo(
    ckpt: Checkpoint,
    ref_ckpt: Checkpoint,
    problems,
    tok,
    settings: TrainSettings,
    group_size: int = 8,
    temperature: float = 1.0,
    max_tokens: int = 16,
    clip_eps: float = 0.2,
    kl_coef: float = 0.001,
    variant: str = "grpo",
    prompts_per_step: int = 1,
    seed: int = 0,
    log_path=None,
):
    """Sample G responses per prompt, score them with the named verifier,
    and optimize the clipped group-relative surrogate with a k3 KL leash.

    The behavior policy is the policy at sampling time (one optimizer step
    per generation round), so ratios start at 1 each step. Its log-probs
    are the values of the taped policy pass itself: no update runs between
    sampling and that pass, and the taped ``forward`` computes the same bits
    as a tape-free pass over the whole rollouts on ``decode``'s kernel.

    A group is one micro unit that samples, verifies and scores the reference
    before it builds its loss. Its rollouts share one prefill of the prompt
    and one named stream (``grpo/step{s}/slot{k}``). ``sample_response`` reads
    a block of uniform draws from it, one row per rollout, and samples the
    rollouts in lockstep rounds of one batched ``decode.extend`` per token:
    the same rollouts as sampling them one after another. A group takes one
    round when no rollout stops before ``max_tokens``, and one more for each
    rollout that does and is followed by others.
    """
    if not problems:
        raise ValueError("no problems to train on")
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    stop_id = tok.special_id("<|end|>")
    # control tokens other than the stop are not sampleable response text
    suppress = [i for i in range(tok.base_size, tok.vocab_size) if i != stop_id]

    def group_unit(step: int, slot: int, problem):
        prompt_ids = list(render_chat(ChatSample(list(problem["prompt"])), tok).token_ids)
        prompt_ids.append(tok.special_id("<|assistant|>"))
        rng = named_rng(seed, f"grpo/step{step}/slot{slot}")
        shared = GroupRollouts(prefill(ckpt, prompt_ids), group_size)  # one prefill per group
        rollouts, rewards = [], []
        for _ in range(group_size):
            resp = sample_response(ckpt, prompt_ids, rng, max_tokens, temperature, stop_id, suppress,
                                   shared)
            text = _response_text(tok, resp, stop_id)
            rewards.append(float(verify(problem["verifier"], text, problem["truth"]).reward))
            rollouts.append(prompt_ids + resp)
        rewards = np.array(rewards)
        # reference scores are tape-free snapshots
        logp_ref = [lp.numpy() for lp in token_logprobs(ref_ckpt, rollouts, len(prompt_ids))]

        def build():
            logp_policy = token_logprobs(ckpt, rollouts, len(prompt_ids))
            logp_old = [lp.data for lp in logp_policy]
            group = GrpoGroup(logp_policy=logp_policy, logp_old=logp_old, logp_ref=logp_ref, rewards=rewards,
                              clip_eps=clip_eps, kl_coef=kl_coef, variant=variant, max_tokens=max_tokens)
            # detached diagnostics: constants, so kl_k3 records no node
            kl = [kl_k3(Tensor(old), ref).data for old, ref in zip(logp_old, logp_ref)]
            extras = {"mean_reward": float(rewards.mean()), "mean_kl": float(np.mean(np.concatenate(kl)))}
            return grpo_objective(group), extras

        return build

    fields = ["step", "lr", "loss", "grad_norm", "mean_reward", "mean_kl"]
    return _run_steps(ckpt, settings, problems, settings.accum * prompts_per_step, group_unit, fields, log_path)
