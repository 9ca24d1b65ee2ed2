"""Print where SFT training memory goes, phase by phase.

Trains a desk-shape model (d_model 256, 4 layers, vocabulary 2048) on one
packed 256-token row for 2 steps through ``train_sft``, the training loop the
CLI runs. After each phase of each step it prints the tracemalloc current
and peak MiB (the peak since the previous phase), the minor page faults
that ``resource.getrusage`` counts in that phase, and the process's peak
resident set so far (``ru_maxrss`` in MB, as perfbench's ``peak_rss_mb``).
The phases end where these calls return: the forward (``sft_batch_loss``),
the backward (``Graph.backward``), the gradient sums with clipping
(``clip_grad_norm``) and the AdamW update (``adamw_step``).

    PYTHONPATH=src python tools/memory_phases.py

Not part of the test suite. tracemalloc sees numpy's buffers and Python's
objects, not the allocator's free pages, so the fault counts show what
glibc gave back between steps and had to fault in again, and the peak RSS
column is the quantity the benchmark reports: tracemalloc alone can rank
two variants the other way.
"""

from __future__ import annotations

import resource
import tracemalloc

import numpy as np

from forge import tensor as T
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


class PhaseLog:
    """Prints one line per phase end and restarts the peak and fault counts."""

    def __init__(self):
        self.step = 0
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def mark(self, phase: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        faults = usage.ru_minflt
        print(f"step {self.step}  {phase:<9}  current {current / MIB:7.1f} MiB  "
              f"peak {peak / MIB:7.1f} MiB  minor faults {faults - self.faults:6d}  "
              f"peak RSS {usage.ru_maxrss / 1024.0:6.1f} MB")
        tracemalloc.reset_peak()
        self.faults = faults
        if phase == "adamw":
            self.step += 1


def after(fn, log: PhaseLog, phase: str):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.mark(phase)
        return out

    return wrapped


def main() -> None:
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


if __name__ == "__main__":
    main()
