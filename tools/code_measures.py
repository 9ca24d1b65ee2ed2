"""Print the two measures of ROADMAP aim 2: lines in ``src/`` and tape nodes.

Lines: each ``.py`` file under ``src/`` and the total, counted as
``find src -name '*.py' | xargs cat | wc -l`` counts them (newlines).

Tape nodes: the nodes a ``Graph`` records, by op, for
- a one-layer toy ``forward`` over 10 tokens (the toy shape of
  ``tests/test_model.py::test_toy_layer_tape_nodes``), and what a second
  layer adds to it;
- one toy GRPO group: the taped policy pass (``token_logprobs`` over 8
  rollouts of 3 lengths behind one prompt) plus ``grpo_objective``, as
  ``train_grpo`` builds it. The rollouts are fixed draws, not samples;
- one toy DPO pair: the taped pass over the chosen and rejected sequences
  (``response_logprob``) plus ``dpop_loss`` with its hinge active, as
  ``train_dpo`` builds it.

Together these cover the three loss heads: ``target_logprobs``,
``grpo_objective`` and the DPO/DPOP loss.

Tape bytes: the KiB that a one-layer desk-shape ``forward`` (the model of
``memory_phases.py`` cut to one layer, over its packed 256-token row of 4
samples) keeps under a ``Graph``, the logits included, and what a second
layer adds: tracemalloc's current bytes after the pass minus before, as
``tests/test_model.py::tape_bytes`` counts them, after one untimed pass.

It reads no clock and draws only from named streams, so the same tree
prints the same text.

    PYTHONPATH=src python tools/code_measures.py

Not part of the test suite.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
from memory_phases import DESK, desk_row

from forge.model import ModelConfig, forward, init_params
from forge.rng import named_rng
from forge.tensor import Graph, reshape
from forge.train.loops import response_logprob, token_logprobs
from forge.train.losses import GrpoGroup, PreferenceBatch, dpop_loss, grpo_objective

SRC = Path(__file__).resolve().parent.parent / "src"


def toy_config(n_layers: int) -> ModelConfig:
    return ModelConfig(
        n_layers=n_layers, d_model=32, n_heads=4, n_kv_heads=2, head_size=8, d_ff=64,
        vocab_size=64, rope_theta=1e4, native_ctx=128, extended_ctx=512, rmsnorm_eps=1e-6,
    )


def tape_ops(build) -> Counter:
    with Graph() as g:
        build()
    return Counter(n.op for n in g.nodes)


def print_ops(title: str, ops: Counter) -> None:
    print(f"{title}: {sum(ops.values())} nodes")
    for op, count in sorted(ops.items()):
        print(f"  {op:<18} {count}")


def forward_ops(n_layers: int) -> Counter:
    ckpt = init_params(toy_config(n_layers), named_rng(0, "code-measures/forward"))
    return tape_ops(lambda: forward(ckpt, np.arange(10)))


def desk_tape_kib(n_layers: int) -> int:
    ckpt = init_params(dataclasses.replace(DESK, n_layers=n_layers), named_rng(0, "code-measures/desk"))
    row = desk_row(named_rng(0, "code-measures/desk-row"))

    def run():
        with Graph() as g:
            logits = forward(ckpt, row.token_ids, row.segment_ids, row.positions)
        return g, logits

    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g, logits = run()  # kept alive while counted
        return (tracemalloc.get_traced_memory()[0] - before) // 1024
    finally:
        tracemalloc.stop()


def grpo_group_ops() -> Counter:
    ckpt = init_params(toy_config(1), named_rng(0, "code-measures/grpo"))
    rng = named_rng(0, "code-measures/rollouts")
    prompt = rng.integers(0, 64, 12).tolist()
    rollouts = [prompt + rng.integers(0, 64, n).tolist() for n in (6, 6, 3, 6, 9, 3, 6, 6)]
    logp_ref = [lp.numpy() for lp in token_logprobs(ckpt, rollouts, len(prompt))]

    def build():
        logp_policy = token_logprobs(ckpt, rollouts, len(prompt))
        grpo_objective(GrpoGroup(
            logp_policy=logp_policy, logp_old=[lp.data for lp in logp_policy], logp_ref=logp_ref,
            rewards=np.array([1.0, 0.0] * 4),
        ))

    return tape_ops(build)


def dpo_pair_ops() -> Counter:
    ckpt = init_params(toy_config(1), named_rng(0, "code-measures/dpo"))
    rng = named_rng(0, "code-measures/pair")
    prompt = rng.integers(0, 64, 12).tolist()
    seqs = [prompt + rng.integers(0, 64, n).tolist() for n in (6, 9)]
    masks = [np.arange(len(s)) >= len(prompt) for s in seqs]
    ref = [lp.item() for lp in response_logprob(ckpt, seqs, masks)]

    def build():
        chosen, rejected = response_logprob(ckpt, seqs, masks)
        dpop_loss(PreferenceBatch(
            policy_chosen=reshape(chosen, (1,)), policy_rejected=reshape(rejected, (1,)),
            ref_chosen=[ref[0] + 0.5], ref_rejected=[ref[1]],  # the policy lost mass: hinge active
        ))

    return tape_ops(build)


def main() -> None:
    files = sorted(SRC.rglob("*.py"))
    counts = [(p.relative_to(SRC.parent), p.read_bytes().count(b"\n")) for p in files]
    for path, n in counts:
        print(f"{n:6d}  {path}")
    print(f"{sum(n for _, n in counts):6d}  src/ total ({len(counts)} files)")
    print()
    one = forward_ops(1)
    print_ops("one-layer toy forward", one)
    print_ops("a second layer adds", forward_ops(2) - one)
    print_ops("toy GRPO group (policy pass + grpo_objective)", grpo_group_ops())
    print_ops("toy DPO pair (policy pass + dpop_loss)", dpo_pair_ops())
    print()
    one_kib = desk_tape_kib(1)
    print(f"one-layer desk-shape forward tape: {one_kib} KiB")
    print(f"a second layer adds: {desk_tape_kib(2) - one_kib} KiB")


if __name__ == "__main__":
    main()
