"""Run the toy pipeline's GRPO stage over sampling seeds.

Builds the acceptance test's toy workspace and runs it through train-dpo
once. Then, from that one dpo.ckpt, it runs train-grpo once per seed with
the test's ``GRPO_E2E`` settings; only ``--seed`` changes. For each seed it
prints whether ``test_09``'s reward check passes (the 5-point moving average
of mean reward never falls and ends above where it started), the moving
averages, and the sha256 prefix of grpo.ckpt.

    PYTHONPATH=src python tools/grpo_seed_sweep.py [--seeds 1 2 ...] [--workdir DIR]

Not part of the test suite: each seed is one GRPO stage, about half a
minute on a desk CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_acceptance import build_e2e_workspace, csv_column  # noqa: E402

from forge.cli import run as cli_run  # noqa: E402


def moving_averages(rewards: list[float]) -> list[float]:
    return [sum(rewards[i - 4:i + 1]) / 5 for i in range(4, len(rewards))]


def check_passes(moving: list[float]) -> bool:
    """test_09's reward check on the moving averages."""
    rising = all(moving[i + 1] >= moving[i] - 1e-12 for i in range(len(moving) - 1))
    return rising and moving[-1] > moving[0]


def sweep(workdir: Path, seeds: list[int]) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    ws = workdir / "toy"
    build_e2e_workspace(ws)
    for stage, cfg in [("upscale", "up.json"), ("train-sft", "sft.json"), ("train-dpo", "dpo.json")]:
        if cli_run(stage, ws / cfg, environ={}) != 0:
            raise SystemExit(f"{stage} failed")
    dpo = hashlib.sha256((ws / "dpo.ckpt").read_bytes()).hexdigest()[:16]
    print(f"dpo.ckpt {dpo}", flush=True)
    passed = 0
    for seed in seeds:
        out = workdir / f"seed{seed}"
        if cli_run("train-grpo", ws / "grpo.json", out_dir=out, seed=seed, environ={}) != 0:
            raise SystemExit(f"train-grpo failed for seed {seed}")
        moving = moving_averages(csv_column(out / "grpo.csv", "mean_reward"))
        ok = check_passes(moving)
        passed += ok
        digest = hashlib.sha256((out / "grpo.ckpt").read_bytes()).hexdigest()[:16]
        print(f"seed {seed:>3}  {'pass' if ok else 'FAIL'}  grpo.ckpt {digest}  moving "
              + " ".join(f"{m:.4f}" for m in moving), flush=True)
    print(f"{passed} of {len(seeds)} seeds pass")
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 17)))
    parser.add_argument("--workdir", type=Path, default=None,
                        help="empty directory for the runs (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.workdir is not None:
        sweep(args.workdir, args.seeds)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sweep(Path(tmp), args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
