"""Print where SFT training and eval memory go, phase by phase.

The eval section runs the eval stage's ``run_suite`` at the eval benchmark's
desk shape (d_model 256, 4 layers, vocabulary 2048) on items drawn from
named streams: a 5-shot, 4-way choice task (30-token contexts, 2-token
choices, 8 scored items) behind its prefilled exemplar block, then one
greedy item (a 200-token context, 32 new tokens). Its phases end where the
checkpoint load, the exemplar prefill, each choice item
(``loglikelihood_choice``), the greedy prefill and the greedy decode return.

The SFT section trains a desk-shape model on one packed 256-token row for 2
steps through ``train_sft``, the training loop the CLI runs. Its phases end
where these calls return: the forward (``sft_batch_loss``), the backward
(``Graph.backward``), the gradient sums with clipping (``clip_grad_norm``)
and the AdamW update (``adamw_step``).

After each phase it prints the tracemalloc current and peak MiB (the peak
since the previous phase), the minor page faults that
``resource.getrusage`` counts in that phase, and the process's peak
resident set so far (``ru_maxrss`` in MB, as perfbench's ``peak_rss_mb``).
Each section runs in a process of its own, so each peak RSS is its own.

    PYTHONPATH=src python tools/memory_phases.py [eval|sft]

Not part of the test suite. tracemalloc sees numpy's buffers and Python's
objects, not the allocator's free pages, so the fault counts show what
glibc gave back between steps and had to fault in again, and the peak RSS
column is the quantity the benchmark reports: tracemalloc alone can rank
two variants the other way.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from forge import evalharness
from forge import tensor as T
from forge.checkpoint import load_checkpoint, save_checkpoint
from forge.datapipe.packing import PackedBatch
from forge.model import ModelConfig, init_params
from forge.rng import named_rng
from forge.train import loops
from forge.train.schedule import ScheduleSpec

DESK = ModelConfig(
    n_layers=4, d_model=256, n_heads=8, n_kv_heads=4, head_size=32,
    d_ff=1024, vocab_size=2048, rope_theta=1e4,
    native_ctx=512, extended_ctx=2048, rmsnorm_eps=1e-6,
)
ROW, SEGMENTS, STEPS = 256, 4, 2
SHOTS, CHOICES, SCORED, CONTEXT, CHOICE, GEN_CONTEXT, MAX_NEW = 5, 4, 8, 30, 2, 200, 32
MIB = 1024.0 * 1024.0


def desk_row(rng) -> PackedBatch:
    """One packed row of SEGMENTS equal segments; loss on each one's second half."""
    seg = ROW // SEGMENTS
    return PackedBatch(
        token_ids=rng.integers(0, DESK.vocab_size, ROW).astype(np.int64),
        segment_ids=np.repeat(np.arange(SEGMENTS, dtype=np.int64), seg),
        loss_mask=np.tile(np.arange(seg) >= seg // 2, SEGMENTS),
        positions=np.tile(np.arange(seg, dtype=np.int64), SEGMENTS),
    )


def eval_tasks() -> list:
    """The choice task and the greedy task, their tokens from named streams."""
    rng = named_rng(802, "memory_phases/eval-items")

    def tokens(n):
        return rng.integers(0, DESK.vocab_size, n).tolist()

    choice = [{"context": tokens(CONTEXT), "choices": [tokens(CHOICE) for _ in range(CHOICES)],
               "gold": int(rng.integers(0, CHOICES))} for _ in range(SHOTS + SCORED)]
    return [evalharness.Task("choice", tuple(choice), "loglikelihood", "accuracy", SHOTS, 1.0 / CHOICES),
            evalharness.Task("continue", ({"context": tokens(GEN_CONTEXT), "gold": tokens(12)},), "generate",
                             "levenshtein", max_new=MAX_NEW)]


class PhaseLog:
    """Prints one line per phase end and restarts the peak and fault counts."""

    def __init__(self, step=0):
        self.step = step  # None: phases are not steps
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def mark(self, phase: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        faults = usage.ru_minflt
        where = f"{phase:<16}" if self.step is None else f"step {self.step}  {phase:<9}"
        print(f"{where}  current {current / MIB:7.1f} MiB  "
              f"peak {peak / MIB:7.1f} MiB  minor faults {faults - self.faults:6d}  "
              f"peak RSS {usage.ru_maxrss / 1024.0:6.1f} MB")
        tracemalloc.reset_peak()
        self.faults = faults
        if phase == "adamw":
            self.step += 1


def after(fn, log: PhaseLog, *phases: str):
    """fn, marking the end of its n-th call as the n-th of ``phases`` (the last repeats)."""
    names = iter(phases)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.mark(next(names, phases[-1]))
        return out

    return wrapped


def eval_phases() -> None:
    loops.keep_freed_pages()  # as the eval command sets it
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(init_params(DESK, named_rng(802, "memory_phases/eval-init"), dtype=np.float32), path)
        log = PhaseLog(step=None)
        tracemalloc.reset_peak()
        ckpt = load_checkpoint(path)
    log.mark("checkpoint")
    tasks = eval_tasks()
    evalharness.prefill = after(evalharness.prefill, log, "exemplar prefill", "greedy prefill")
    evalharness.loglikelihood_choice = after(evalharness.loglikelihood_choice, log,
                                             *(f"choice item {k}" for k in range(1, SCORED + 1)))
    evalharness.decode = after(evalharness.decode, log, "greedy decode")
    evalharness.run_suite(ckpt, tasks, step=0)


def sft_phases() -> None:
    tracemalloc.start()
    ckpt = init_params(DESK, named_rng(801, "memory_phases/init"), dtype=np.float32)
    batch = desk_row(named_rng(801, "memory_phases/row"))
    current, _ = tracemalloc.get_traced_memory()
    print(f"setup      current {current / MIB:7.1f} MiB (parameters and the row)")
    log = PhaseLog()
    tracemalloc.reset_peak()
    loops.sft_batch_loss = after(loops.sft_batch_loss, log, "forward")
    T.Graph.backward = after(T.Graph.backward, log, "backward")
    loops.clip_grad_norm = after(loops.clip_grad_norm, log, "sums+clip")
    loops.adamw_step = after(loops.adamw_step, log, "adamw")
    spec = ScheduleSpec(peak_lr=3e-3, min_lr=3e-3, warmup_steps=0, total_steps=STEPS, shape="constant")
    loops.train_sft(ckpt, [batch], loops.TrainSettings(spec=spec, steps=STEPS))


def main() -> None:
    sections = {"eval": eval_phases, "sft": sft_phases}
    if len(sys.argv) > 1:
        sections[sys.argv[1]]()
        return
    for name in sections:  # each in a process of its own
        print(f"-- {name}", flush=True)
        subprocess.run([sys.executable, __file__, name], check=True)


if __name__ == "__main__":
    main()
