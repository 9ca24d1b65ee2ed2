"""Seeded input generator for the four benchmark workloads.

Each ``write_*`` function fills an empty workspace directory with the files
one workload hands to the ``forge`` command line (checkpoints, tokenizer,
datasets, run configs) and returns what the correctness gate expects of
the outputs. The same seed gives byte-identical workspaces. forge is
called here only through its public modules, and looked up at call time
(``checkpoint.save_checkpoint``) so a traced set-up sees those calls.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from forge import checkpoint, cli, model
from forge.datapipe import tokenizer
from forge.datapipe.scrub import PESEL_WEIGHTS

# Model shapes. The toy shape is the acceptance pipeline's (4 layers,
# depth-upscaled to 6 with m=1); the desk shape is where matmuls and
# O(T^2) attention dominate.
TOY_RESERVED = 8  # acceptance tokenizer: raw bytes plus 8 special slots
TOY_M = 1
TOY = dict(
    n_layers=4, d_model=32, n_heads=4, n_kv_heads=2, head_size=8,
    d_ff=64, vocab_size=256 + TOY_RESERVED, rope_theta=1e4,
    native_ctx=128, extended_ctx=512, rmsnorm_eps=1e-6,
)
DESK = dict(
    n_layers=4, d_model=256, n_heads=8, n_kv_heads=4, head_size=32,
    d_ff=1024, vocab_size=2048, rope_theta=1e4,
    native_ctx=512, extended_ctx=2048, rmsnorm_eps=1e-6,
)
DESK_MERGES = 200
PREP_MERGES = 300
DESK_ROW = 256  # packed SFT row length

GRPO = dict(group_size=8, temperature=0.7, max_tokens=12, steps=3)
SFT_STEPS = 5
# Token-level eval items are cut to fixed lengths, so a scored choice item
# forwards 5 * (30 + 2) + 30 + 2 - 1 = 191 tokens per choice for any seed.
EVAL = dict(n_shot=5, n_choices=4, ll_scored=8, gen_items=1, max_new=32,
            context=30, choice=2, gen_context=200)


def rng_for(seed: int, part: str) -> np.random.Generator:
    """Stream per (seed, part); independent of forge's own RNG naming."""
    return np.random.default_rng([seed, zlib.crc32(part.encode("utf-8"))])


# -- text ---------------------------------------------------------------------

_SYLLABLES = [c + v for c in "bcdfghjklmnprstwz" for v in "aeiouy"] + [
    "sz", "cz", "ą", "ę", "ó", "ł", "ż",
]
_ASCII_SYLLABLES = [s for s in _SYLLABLES if s.isascii()]


def word(rng, ascii_only: bool = False) -> str:
    pool = _ASCII_SYLLABLES if ascii_only else _SYLLABLES
    return "".join(pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 4))))


def sentence(rng, lo: int = 6, hi: int = 14) -> str:
    words = [word(rng) for _ in range(int(rng.integers(lo, hi + 1)))]
    return " ".join(words).capitalize() + "."


def paragraph(rng, n_sentences: int) -> str:
    return " ".join(sentence(rng) for _ in range(n_sentences))


def prose(rng, n_chars: int) -> str:
    """Sentences cut to exactly n_chars characters (no digits)."""
    parts, size = [], 0
    while size <= n_chars:
        parts.append(sentence(rng))
        size += len(parts[-1]) + 1
    text = " ".join(parts)[:n_chars]
    return text[:-1] + "a" if text.endswith(" ") else text


def token_prefix(tok, rng, n_tokens: int, n_chars: int) -> list[int]:
    """The first n_tokens ids of n_chars characters of prose."""
    ids = tok.encode(prose(rng, n_chars))[:n_tokens]
    if len(ids) != n_tokens:
        raise RuntimeError(f"{n_chars} characters gave fewer than {n_tokens} tokens")
    return ids


def chat(user: str, assistant: str) -> dict:
    return {"messages": [{"role": "user", "content": user},
                         {"role": "assistant", "content": assistant}]}


def sized_dialogue(rng, tok, n_tokens: int) -> dict:
    """A dialogue that renders to exactly n_tokens ids. The assistant turn
    ends in a run of digits: the prose the tokenizer was trained on has
    none, so no merge touches them and each adds exactly one token."""
    user = sentence(rng, 3, 6)
    budget = n_tokens - 4 - len(tok.encode(user))  # 4 = two role and two end markers
    words, text = [], "."
    while True:
        more = words + [word(rng)]
        longer = " ".join(more).capitalize() + "."
        if len(tok.encode(longer)) >= budget:
            break
        words, text = more, longer
    pad = budget - len(tok.encode(text))
    if pad < 0 or len(tok.encode(text + "7" * pad)) != budget:
        raise RuntimeError("could not size the dialogue exactly")
    return chat(user, text + "7" * pad)


# -- personal data planted into the scrub corpus ---------------------------------


def pesel(rng) -> str:
    digits = "".join(str(d) for d in rng.integers(0, 10, size=10))
    total = sum(w * int(d) for w, d in zip(PESEL_WEIGHTS, digits))
    return digits + str((10 - total % 10) % 10)


def phone(rng) -> str:
    d = "".join(str(x) for x in rng.integers(0, 10, size=9))
    style = int(rng.integers(0, 4))
    if style == 0:
        return f"{d[:3]} {d[3:6]} {d[6:]}"
    if style == 1:
        return f"{d[:3]}-{d[3:6]}-{d[6:]}"
    if style == 2:
        return f"+48 {d[:3]} {d[3:6]} {d[6:]}"
    return d


def email(rng) -> str:
    return f"{word(rng, True)}.{word(rng, True)}@{word(rng, True)}.pl"


def url(rng) -> str:
    scheme = "https://" if rng.integers(0, 2) else "www."
    return f"{scheme}{word(rng, True)}.pl/{word(rng, True)}"


_PLANTERS = {"PESEL": pesel, "PHONE": phone, "EMAIL": email, "URL": url}


def pii_text(rng, n_chars: int) -> tuple[str, dict[str, int]]:
    """Prose of exactly n_chars characters with each category planted 1-4
    times, every planted item between spaces and never next to a digit,
    so the expected scrub count per category is exactly the planted count."""
    plants, counts = [], {}
    for cat, make in _PLANTERS.items():
        counts[cat] = int(rng.integers(1, 5))
        plants += [f" kontakt {make(rng)} dalej " for _ in range(counts[cat])]
    rng.shuffle(plants)
    filler = prose(rng, n_chars - 1 - sum(len(p) for p in plants))
    cuts = sorted(int(c) for c in rng.integers(0, len(filler), size=len(plants)))
    pieces, prev = [], 0
    for cut, plant in zip(cuts, plants):
        pieces += [filler[prev:cut], plant]
        prev = cut
    return "".join(pieces) + filler[prev:] + "\n", counts


# -- files ---------------------------------------------------------------------


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


def trained_tokenizer(rng, n_merges: int, vocab_size: int | None = None):
    """BPE trained on fresh generated prose; when vocab_size is given the
    special block is sized so the tokenizer spans the model vocabulary."""
    corpus = [paragraph(rng, 8) for _ in range(8)]
    merges = tokenizer.train_bpe(corpus, n_merges)
    n_reserved = TOY_RESERVED if vocab_size is None else vocab_size - tokenizer.N_BYTE_TOKENS - len(merges)
    return tokenizer.allocate_chat_specials(merges, n_reserved=n_reserved)


def save_model(ws: Path, name: str, config: model.ModelConfig, rng) -> None:
    ckpt = model.init_params(config, rng, dtype=np.float32)
    checkpoint.save_checkpoint(ckpt, ws / name)


def write_sft_desk(ws: Path, seed: int) -> dict:
    """Desk-shape checkpoint, dialogues of exactly 64 tokens so every packed
    row holds four segments and exactly 256 tokens, whatever the seed, and
    a constant-lr SFT config."""
    tok = trained_tokenizer(rng_for(seed, "sft/tok"), DESK_MERGES, DESK["vocab_size"])
    tokenizer.save_tokenizer(tok, ws / "tok.json")
    rng = rng_for(seed, "sft/data")
    per_row = 4
    write_jsonl(ws / "dialogues.jsonl",
                [sized_dialogue(rng, tok, DESK_ROW // per_row) for _ in range(per_row * SFT_STEPS)])
    save_model(ws, "base.ckpt", model.ModelConfig(**DESK), rng_for(seed, "sft/init"))
    write_json(ws / "sft.json", {
        "checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "dialogues.jsonl",
        "output": "sft.ckpt", "log": "sft.csv", "steps": SFT_STEPS, "accum": 1,
        "max_len": DESK_ROW, "weight_decay": 0.0, "seed": seed,
        "schedule": {"peak_lr": 3e-3, "min_lr": 3e-3, "warmup_steps": 0, "shape": "constant"},
    })
    return {"steps": SFT_STEPS}


def write_grpo_toy(ws: Path, seed: int) -> dict:
    """Toy checkpoint upscaled 4 -> 6 layers through the CLI, arithmetic
    problems in the rl_math.jsonl format, and the acceptance GRPO settings."""
    tok = tokenizer.allocate_chat_specials([], n_reserved=TOY_RESERVED)
    tokenizer.save_tokenizer(tok, ws / "tok.json")
    rng = rng_for(seed, "grpo/data")
    problems = []
    for _ in range(16):
        a, b = (int(x) for x in rng.integers(10, 100, size=2))  # fixed prompt length
        op = "+" if rng.integers(0, 2) else "-"
        problems.append({
            "prompt": [{"role": "user", "content": f"{a}{op}{b}=?"}],
            "verifier": "math", "truth": str(a + b if op == "+" else a - b),
        })
    write_jsonl(ws / "problems.jsonl", problems)
    save_model(ws, "base.ckpt", model.ModelConfig(**TOY), rng_for(seed, "grpo/init"))
    write_json(ws / "up.json", {"checkpoint": "base.ckpt", "m": TOY_M, "output": "up.ckpt"})
    if cli.run("upscale", ws / "up.json", environ={}) != 0:
        raise RuntimeError("upscale stage failed during set-up")
    write_json(ws / "grpo.json", {
        "checkpoint": "up.ckpt", "tokenizer": "tok.json", "dataset": "problems.jsonl",
        "output": "grpo.ckpt", "log": "grpo.csv", "steps": GRPO["steps"], "accum": 1,
        "group_size": GRPO["group_size"], "temperature": GRPO["temperature"],
        "max_tokens": GRPO["max_tokens"], "prompts_per_step": 1, "seed": seed,
        "schedule": {"peak_lr": 1.5e-3, "min_lr": 1.5e-3, "warmup_steps": 0, "shape": "constant"},
    })
    return {
        "steps": GRPO["steps"], "group_size": GRPO["group_size"],
        "stop_id": tok.special_id("<|end|>"),
    }


def write_eval_desk(ws: Path, seed: int) -> dict:
    """Desk-shape checkpoint and a two-task suite: 5-shot 4-way choice
    scoring behind a 190-token shared context, and greedy generation of
    32 tokens after a 200-token context."""
    tok = trained_tokenizer(rng_for(seed, "eval/tok"), DESK_MERGES, DESK["vocab_size"])
    rng = rng_for(seed, "eval/data")
    choice_items = []
    for _ in range(EVAL["n_shot"] + EVAL["ll_scored"]):
        choice_items.append({
            "context": token_prefix(tok, rng, EVAL["context"], 150),
            "choices": [token_prefix(tok, rng, EVAL["choice"], 12) for _ in range(EVAL["n_choices"])],
            "gold": int(rng.integers(0, EVAL["n_choices"])),
        })
    write_jsonl(ws / "choice.jsonl", choice_items)
    gen_items = [
        {"context": token_prefix(tok, rng, EVAL["gen_context"], 700),
         "gold": tok.encode(sentence(rng))}
        for _ in range(EVAL["gen_items"])
    ]
    write_jsonl(ws / "generate.jsonl", gen_items)
    write_json(ws / "suite.json", {"tasks": [
        {"name": "choice", "file": "choice.jsonl", "mode": "loglikelihood", "metric": "accuracy",
         "n_shot": EVAL["n_shot"], "baseline": 1.0 / EVAL["n_choices"]},
        {"name": "continue", "file": "generate.jsonl", "mode": "generate", "metric": "levenshtein",
         "max_new": EVAL["max_new"]},
    ]})
    save_model(ws, "model.ckpt", model.ModelConfig(**DESK), rng_for(seed, "eval/init"))
    write_json(ws / "eval.json", {"checkpoint": "model.ckpt", "suite": "suite.json",
                                  "report": "eval_report.json", "seed": seed})
    return {"items": EVAL["ll_scored"] + EVAL["gen_items"], "gen_items": EVAL["gen_items"]}


def write_corpus_prep(ws: Path, seed: int) -> dict:
    """Prose files with planted personal data, a chat dataset, a tokenizer
    trained on the prose, and configs for scrub -> tokstats -> pack."""
    rng = rng_for(seed, "prep/data")
    (ws / "texts").mkdir()
    planted, chars = {}, 0
    for k in range(4):
        text, counts = pii_text(rng, 1500)
        (ws / "texts" / f"doc{k}.txt").write_text(text, encoding="utf-8")
        planted[f"doc{k}.txt"] = counts
        chars += len(text)
    dialogues = [chat(prose(rng, 60), prose(rng, 150)) for _ in range(12)]
    write_jsonl(ws / "chat.jsonl", dialogues)
    chars += sum(len(m["content"]) for d in dialogues for m in d["messages"])
    # The merge table is trained on seed-independent prose: BPE encode time
    # per character depends on which merges apply, and a per-seed table
    # made that time vary between seeds far more than between runs.
    tok = trained_tokenizer(rng_for(0, "prep/tok"), PREP_MERGES)
    tokenizer.save_tokenizer(tok, ws / "tok.json")
    names = sorted(planted)
    write_json(ws / "scrub.json", {"inputs": [f"texts/{n}" for n in names],
                                   "out_dir": "scrubbed", "report": "scrub_report.tsv"})
    # tokstats reads the scrubbed copies the scrub stage writes under out/
    write_json(ws / "tokstats.json", {"tokenizer": "tok.json",
                                      "texts": [f"out/scrubbed/{n}" for n in names],
                                      "report": "tokstats.tsv"})
    write_json(ws / "pack.json", {"tokenizer": "tok.json", "dataset": "chat.jsonl",
                                  "max_len": 256, "output": "packed.jsonl"})
    return {"planted": planted, "chars": chars, "max_len": 256}


WRITERS = {
    "sft-desk": write_sft_desk,
    "grpo-toy": write_grpo_toy,
    "eval-desk": write_eval_desk,
    "corpus-prep": write_corpus_prep,
}
