"""Check that the toy pipeline's artifacts keep their recorded bytes.

Builds the acceptance test's toy workspace (``test_09``), runs the five
stages through the CLI (upscale, train-sft, train-dpo, train-grpo, eval),
prints the sha256 prefix of each of the 14 artifacts that ``test_09``
compares between two runs, and compares each with ``EXPECTED`` below. A 15th
line hashes the per-choice log-likelihoods that the eval stage scores under
``grpo.ckpt``: report.json keeps only the accuracy they round to, so it can
keep its bytes while the model's numbers move. Exits 1 naming every entry
that differs, 0 when all match.

    PYTHONPATH=src python tools/artifact_hashes.py

Not part of the test suite: one pipeline pass takes about half a minute on
a desk CPU with one BLAS thread. A change that is meant to move these bytes
updates ``EXPECTED`` and says why.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from forge.checkpoint import load_checkpoint  # noqa: E402
from forge.evalharness import build_prompt, load_suite, loglikelihood_choice  # noqa: E402
from test_acceptance import build_e2e_workspace, run_e2e  # noqa: E402

CHOICE_SCORES = "choice scores"

EXPECTED = {
    "up.ckpt": "3cfce1fd7333c540",
    "sft.ckpt": "daaaf948373acc9d",
    "sft.csv": "00cb0a2af1194ea5",
    "dpo.ckpt": "f6bfcbdcd01bad5b",
    "dpo.csv": "81a1c51f40a87164",
    "grpo.ckpt": "311cb4e6ae8cd283",
    "grpo.csv": "a4a8825ed7272a69",
    "report.json": "88d32c326a309d37",
    "monitor.csv": "f781adf89abb5428",
    "upscale_manifest.json": "b660628b65584bb0",
    "train_sft_manifest.json": "68908c63800cae59",
    "train_dpo_manifest.json": "a4ae6cc5ac0ff1b0",
    "train_grpo_manifest.json": "bd806f2fb335060f",
    "eval_manifest.json": "470b2f37120d5aa6",
    CHOICE_SCORES: "76075786789dc1c9",
}


def choice_scores_digest(ws: Path) -> str:
    """sha256 prefix of the float64 bytes of every scored item's per-choice
    scores, in suite and item order, from ``loglikelihood_choice`` under grpo.ckpt."""
    ckpt = load_checkpoint(ws / "grpo.ckpt")
    h = hashlib.sha256()
    for task in load_suite(ws / "suite.json"):
        if task.mode == "loglikelihood":
            for item in task.scored_items():
                h.update(loglikelihood_choice(ckpt, build_prompt(task, item), item["choices"])[1].tobytes())
    return h.hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "toy"
        build_e2e_workspace(ws)
        run_e2e(ws)  # an AssertionError names a stage that exits non-zero
        differ = []
        for name, want in EXPECTED.items():
            if name == CHOICE_SCORES:
                got = choice_scores_digest(ws)
            else:
                got = hashlib.sha256((ws / name).read_bytes()).hexdigest()[:16]
            print(f"{name:<26} {got}  {'ok' if got == want else f'DIFFERS (expected {want})'}")
            if got != want:
                differ.append(name)
    if differ:
        print(f"{len(differ)} of {len(EXPECTED)} entries differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"all {len(EXPECTED)} entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
