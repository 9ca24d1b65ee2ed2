"""Check that the toy pipeline's artifacts keep their recorded bytes.

Builds the acceptance test's toy workspace (``test_09``), runs the five
stages through the CLI (upscale, train-sft, train-dpo, train-grpo, eval),
prints the sha256 prefix of each of the 14 artifacts that ``test_09``
compares between two runs, and compares each with ``EXPECTED`` below. A 15th
line hashes the per-choice log-likelihoods that the eval stage scores under
``grpo.ckpt``: report.json keeps only the accuracy they round to, so it can
keep its bytes while the model's numbers move. A 16th line hashes a ragged
GRPO run: 3 train-grpo steps from dpo.ckpt with the stop token's
``lm_head`` column raised by 3.0, so that about half the rollouts stop
early and some groups hold rollouts of several lengths (``test_09`` never
stops one). A 17th line hashes the ``save_tokenizer`` bytes of a
300-merge tokenizer that ``train_bpe`` learns from seeded syllable prose
(the pipeline's own tokenizer has no merges). Exits 1 naming every entry
that differs, 0 when all match.

    PYTHONPATH=src python tools/artifact_hashes.py

Not part of the test suite: one pipeline pass takes about half a minute on
a desk CPU with one BLAS thread. A change that is meant to move these bytes
updates ``EXPECTED`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from forge.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from forge.train import loops  # noqa: E402
from forge.cli import run as cli_run  # noqa: E402
from forge.evalharness import build_prompt, load_suite, loglikelihood_choice  # noqa: E402
from forge.datapipe.tokenizer import allocate_chat_specials, save_tokenizer, train_bpe  # noqa: E402
from test_acceptance import TOK, build_e2e_workspace, csv_column, run_e2e  # noqa: E402
from test_tokenizer import syllable_prose  # noqa: E402

CHOICE_SCORES = "choice scores"
RAGGED_GRPO = "ragged grpo.ckpt+csv"
TRAINED_TOK = "trained tokenizer"

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
    RAGGED_GRPO: "0be2ef23e27ec42d",
    TRAINED_TOK: "a2784330f78743f5",
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


def ragged_grpo_digest(ws: Path) -> str:
    """sha256 prefix of the checkpoint and CSV bytes of 3 train-grpo steps
    from dpo.ckpt with the stop token's ``lm_head`` column raised by 3.0.
    Exits unless some group's rollouts differ in length and some step's
    ``grad_norm`` is nonzero: otherwise the entry checks no ragged gradient.
    (A raise of 1.0 stops 30 % of the rollouts, but every group stops alike.)"""
    ckpt = load_checkpoint(ws / "dpo.ckpt")
    ckpt.params["lm_head"].data[:, TOK.special_id("<|end|>")] += 3.0
    save_checkpoint(ckpt, ws / "ragged_dpo.ckpt")
    cfg = json.loads((ws / "grpo.json").read_text(encoding="utf-8"))
    cfg.update(checkpoint="ragged_dpo.ckpt", output="ragged.ckpt", log="ragged.csv", steps=3)
    (ws / "ragged.json").write_text(json.dumps(cfg), encoding="utf-8")
    scored, lengths = loops.token_logprobs, set()

    def token_logprobs(ckpt, tokens, from_pos):  # notes each group's distinct lengths
        lengths.add(len({len(t) for t in tokens}))
        return scored(ckpt, tokens, from_pos)

    loops.token_logprobs = token_logprobs
    try:
        code = cli_run("train-grpo", ws / "ragged.json", environ={})
    finally:
        loops.token_logprobs = scored
    if code != 0:
        raise SystemExit("ragged train-grpo failed")
    if max(lengths) < 2:
        raise SystemExit("ragged train-grpo: every group's rollouts have one length")
    if not any(csv_column(ws / "ragged.csv", "grad_norm")):
        raise SystemExit("ragged train-grpo: every grad_norm is 0, so no gradient is checked")
    return hashlib.sha256((ws / "ragged.ckpt").read_bytes() + (ws / "ragged.csv").read_bytes()).hexdigest()[:16]


def trained_tokenizer_digest(ws: Path) -> str:
    """sha256 prefix of the saved tokenizer that 300 merges of ``train_bpe``
    give on seeded syllable prose (8 texts of 500 characters, seed 1)."""
    tok = allocate_chat_specials(train_bpe(syllable_prose(1, n_chars=500), 300), n_reserved=8)
    save_tokenizer(tok, ws / "trained_tok.txt")
    return hashlib.sha256((ws / "trained_tok.txt").read_bytes()).hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "toy"
        build_e2e_workspace(ws)
        run_e2e(ws)  # an AssertionError names a stage that exits non-zero
        differ = []
        for name, want in EXPECTED.items():
            if name == CHOICE_SCORES:
                got = choice_scores_digest(ws)
            elif name == RAGGED_GRPO:
                got = ragged_grpo_digest(ws)
            elif name == TRAINED_TOK:
                got = trained_tokenizer_digest(ws)
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
