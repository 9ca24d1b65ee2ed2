"""Config-driven command line tying the pipeline together.

`forge <subcommand> --config <path> [--out <dir>] [--seed <u64>]`

Configs are JSON, validated fail-closed against the subcommand's schema:
unknown keys are errors (with a nearest-key suggestion), missing required
fields and constraint violations name the offending dotted path. Values
can be overridden per run through FORGE_* environment variables (double
underscore nests: FORGE_SCHEDULE__PEAK_LR=1e-3). After file, defaults,
overrides and --seed, each leaf must match its kind in SCHEMAS: an existing
input file (or a non-empty list), an output name under --out (or null), an
int >= n, a number > 0 or >= 0, null or a list of numbers, or one of a set
of strings; else a config error "<dotted.path>: expected <kind>, got <v>".

Input paths resolve relative to the config file; outputs resolve under
--out (default: the config's directory). Every run writes <command>_
manifest.json (config hash, seed, versions, output names; no timestamps)
next to the outputs, and exits 0 on success, 2 on config errors, 3 on
data errors, 4 on numeric failure.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import platform
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .datapipe.chat import build_loss_mask, load_chat_dataset, render_chat
from .datapipe.packing import pack_samples
from .datapipe.scrub import scrub
from .datapipe.tokenizer import load_tokenizer, token_stats
from .evalharness import load_suite, run_suite
from .model import Checkpoint
from .checkpoint import load_checkpoint, save_checkpoint
from .tensor import Tensor
from .train.loops import (
    NumericError,
    TrainSettings,
    encode_preference_pairs,
    keep_freed_pages,
    load_preference_dataset,
    load_rl_dataset,
    train_dpo,
    train_grpo,
    train_sft,
)
from .train.schedule import DPO_SCHEDULE, RL_SCHEDULE, SFT_SCHEDULE, ScheduleSpec
from .upscale import UpscaleSpec, depth_upscale, merge_checkpoints
from .verifiers import score_corpus


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Required:
    def __repr__(self):
        return "<required>"


REQUIRED = _Required()


@dataclass(frozen=True)
class Kind:
    """The type and range one config leaf must hold. An input kind also needs
    each file it names to exist, relative to the config's directory."""

    expected: str
    ok: Callable[[object], bool]
    inputs: bool = False
    output: bool = False


def _is_number(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _is_output_name(v) -> bool:
    """A printable relative path that stays under the output directory."""
    if not isinstance(v, str) or not v.isprintable() or Path(v).is_absolute():
        return False
    parts = Path(v).parts
    return bool(parts) and ".." not in parts and all(len(p.encode()) < 256 for p in parts)


def _optional(kind: Kind) -> Kind:
    return Kind(f"null or {kind.expected}", lambda v: v is None or kind.ok(v), output=kind.output)


def _int(lo: int) -> Kind:
    return Kind(f"an integer >= {lo}", lambda v: type(v) is int and v >= lo)


def _one_of(*allowed: str) -> Kind:
    return Kind("one of " + ", ".join(map(repr, allowed)), lambda v: type(v) is str and v in allowed)


INPUT = Kind("an input path", lambda v: type(v) is str, inputs=True)
INPUTS = Kind("a non-empty list of input paths",
              lambda v: type(v) is list and v != [] and all(type(x) is str for x in v), inputs=True)
OUTPUT = Kind("an output name", _is_output_name, output=True)
POSITIVE = Kind("a number > 0", lambda v: _is_number(v) and v > 0)
NON_NEGATIVE = Kind("a number >= 0", lambda v: _is_number(v) and v >= 0)
NUMBERS = Kind("a list of numbers", lambda v: type(v) is list and all(map(_is_number, v)))
SEED = (0, _int(0))


def _schedule_schema(stage: dict) -> dict:
    return {
        "peak_lr": (stage["peak_lr"], NON_NEGATIVE),
        "min_lr": (stage["min_lr"], NON_NEGATIVE),
        "warmup_steps": (stage["warmup_steps"], _int(0)),
        "total_steps": (None, _optional(_int(1))),  # None -> steps
        "shape": (stage["shape"], _one_of("cosine", "constant")),
    }


_TRAIN_COMMON = {
    "checkpoint": (REQUIRED, INPUT),
    "tokenizer": (REQUIRED, INPUT),
    "dataset": (REQUIRED, INPUT),
    "output": ("model.ckpt", OUTPUT),
    "log": (None, _optional(OUTPUT)),
    "steps": (REQUIRED, _int(1)),
    "accum": (8, _int(1)),
    "max_grad_norm": (1.0, POSITIVE),
    "seed": SEED,
}

# Every leaf is (default, kind); a dict value is a nested section.
SCHEMAS: dict[str, dict] = {
    "upscale": {
        "checkpoint": (REQUIRED, INPUT),
        "m": (REQUIRED, _int(0)),
        "output": ("upscaled.ckpt", OUTPUT),
        "seed": SEED,
    },
    "merge": {
        "checkpoints": (REQUIRED, INPUTS),
        "weights": (None, _optional(NUMBERS)),
        "output": ("merged.ckpt", OUTPUT),
        "seed": SEED,
    },
    "train-sft": {
        **_TRAIN_COMMON,
        "max_len": (512, _int(1)),
        "weight_decay": (0.05, NON_NEGATIVE),
        "schedule": _schedule_schema(SFT_SCHEDULE),
    },
    "train-dpo": {
        **_TRAIN_COMMON,
        "variant": ("dpo", _one_of("dpo", "dpop")),
        "beta": (0.1, POSITIVE),
        "lam_dpop": (5.0, NON_NEGATIVE),
        "weight_decay": (0.05, NON_NEGATIVE),
        "schedule": _schedule_schema(DPO_SCHEDULE),
    },
    "train-grpo": {
        **_TRAIN_COMMON,
        "variant": ("grpo", _one_of("grpo", "dr_grpo")),
        "group_size": (8, _int(2)),
        "temperature": (1.0, POSITIVE),
        "max_tokens": (64, _int(1)),
        "clip_eps": (0.2, NON_NEGATIVE),
        "kl_coef": (0.001, NON_NEGATIVE),
        "prompts_per_step": (1, _int(1)),
        "weight_decay": (0.0, NON_NEGATIVE),
        "schedule": _schedule_schema(RL_SCHEDULE),
    },
    "eval": {
        "checkpoint": (REQUIRED, INPUT),
        "suite": (REQUIRED, INPUT),
        "step": (0, _int(0)),
        "report": ("eval_report.json", OUTPUT),
        "monitor_csv": (None, _optional(OUTPUT)),
        "seed": SEED,
    },
    "tokstats": {
        "tokenizer": (REQUIRED, INPUT),
        "texts": (REQUIRED, INPUTS),
        "report": ("tokstats.tsv", OUTPUT),
        "seed": SEED,
    },
    "scrub": {
        "inputs": (REQUIRED, INPUTS),
        "out_dir": ("scrubbed", OUTPUT),
        "report": ("scrub_report.tsv", OUTPUT),
        "seed": SEED,
    },
    "pack": {
        "tokenizer": (REQUIRED, INPUT),
        "dataset": (REQUIRED, INPUT),
        "max_len": (REQUIRED, _int(1)),
        "output": ("packed.jsonl", OUTPUT),
        "seed": SEED,
    },
    "verify": {
        "fixtures": (REQUIRED, INPUT),
        "report": ("verify_report.json", OUTPUT),
        "seed": SEED,
    },
}

ENV_PREFIX = "FORGE_"


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _validate_section(raw: dict, schema: dict, at: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{at or 'config'}: expected an object")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {(f'{at}.{key}' if at else key)!r}{_suggest(key, schema)}")
    out = {}
    for key, spec in schema.items():
        path = f"{at}.{key}" if at else key
        if isinstance(spec, dict):
            out[key] = _validate_section(raw.get(key, {}), spec, path)
        elif key in raw:
            out[key] = raw[key]
        elif spec[0] is REQUIRED:
            raise ConfigError(f"missing required key {path!r}")
        else:
            out[key] = spec[0]
    return out


def _apply_env_overrides(cfg: dict, schema: dict, environ=None) -> set:
    environ = os.environ if environ is None else environ
    touched = set()
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        parts = name[len(ENV_PREFIX):].lower().split("__")
        node, spec, at = cfg, schema, []
        for part in parts[:-1]:
            at.append(part)
            if not isinstance(spec.get(part), dict):
                raise ConfigError(f"{name}: {'.'.join(at)} is not a config section")
            node, spec = node[part], spec[part]
        leaf = parts[-1]
        if leaf not in spec:
            raise ConfigError(f"{name}: unknown key {'.'.join(at + [leaf])!r}{_suggest(leaf, spec)}")
        if isinstance(spec[leaf], dict):
            raise ConfigError(f"{name}: {'.'.join(at + [leaf])} is a section, not a value")
        try:
            node[leaf] = json.loads(value)
        except json.JSONDecodeError:
            node[leaf] = value
        touched.add(tuple(parts))
    return touched


def _user_paths(raw: dict, at=()) -> set:
    """Dotted paths (as tuples) the user explicitly wrote in the config."""
    out = set()
    for key, value in raw.items():
        path = at + (key,)
        out.add(path)
        if isinstance(value, dict):
            out |= _user_paths(value, path)
    return out


def _check_leaves(cfg: dict, schema: dict, base: Path, at: str = "") -> None:
    """Every leaf against its kind; input files resolve against base."""
    for key, spec in schema.items():
        path, value = f"{at}.{key}" if at else key, cfg[key]
        if isinstance(spec, dict):
            _check_leaves(value, spec, base, path)
            continue
        kind = spec[1]
        if not kind.ok(value):
            raise ConfigError(f"{path}: expected {kind.expected}, got {value!r}")
        if kind.inputs:
            many = isinstance(value, list)
            for i, rel in enumerate(value if many else [value]):
                p = base / rel
                if not p.is_file():
                    why = "not a file" if p.exists() else "path does not exist"
                    raise ConfigError(f"{path}{f'[{i}]' if many else ''}: {why}: {p}")


def _cross_checks(cfg: dict, user_set) -> None:
    if "schedule" in cfg:
        sched = cfg["schedule"]
        if sched["total_steps"] is None:
            sched["total_steps"] = cfg["steps"]
        if sched["warmup_steps"] > sched["total_steps"]:
            if ("schedule", "warmup_steps") in user_set:
                raise ConfigError(
                    f"schedule.warmup_steps ({sched['warmup_steps']}) exceeds "
                    f"schedule.total_steps ({sched['total_steps']})"
                )
            # stage-default warmup on a short run: clamp to the budget
            sched["warmup_steps"] = sched["total_steps"]


def _manifest_name(command: str) -> str:
    """File the run manifest is written to, last, in the output directory."""
    return f"{command.replace('-', '_')}_manifest.json"


def _check_outputs_apart(command: str, cfg: dict, schema: dict) -> None:
    """No output may name another output's path, the run manifest's, or a
    directory above either."""
    named = [("the run manifest", _manifest_name(command))] + [
        (key, cfg[key]) for key, spec in schema.items()
        if not isinstance(spec, dict) and spec[1].output and cfg[key] is not None]
    for i, (a, va) in enumerate(named):
        for b, vb in named[i + 1:]:
            pa, pb = Path(va), Path(vb)
            if pa == pb or pa in pb.parents or pb in pa.parents:
                raise ConfigError(f"{b}: {vb!r} overlaps {a} {va!r}")


def validate_config(command: str, config_path, seed_override=None, environ=None) -> dict:
    """Parsed, defaulted, overridden, leaf-checked, cross-checked run config."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}{_suggest(command, SCHEMAS)}")
    config_path = Path(config_path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {config_path}:{e.lineno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {config_path} ({e.reason} at byte {e.start})") from None
    except OSError as e:  # a directory, say
        raise ConfigError(f"config cannot be read: {config_path}: {e.strerror}") from None
    cfg = _validate_section(raw, SCHEMAS[command], "")
    user_set = _user_paths(raw) | _apply_env_overrides(cfg, SCHEMAS[command], environ)
    if seed_override is not None:
        cfg["seed"] = seed_override
    _check_leaves(cfg, SCHEMAS[command], config_path.parent)
    _check_outputs_apart(command, cfg, SCHEMAS[command])
    _cross_checks(cfg, user_set)
    return cfg


def _schedule_from(cfg: dict) -> ScheduleSpec:
    try:
        return ScheduleSpec(**cfg["schedule"])
    except ValueError as e:
        raise ConfigError(f"schedule: {e}") from None


def _settings_from(cfg: dict) -> TrainSettings:
    try:
        return TrainSettings(spec=_schedule_from(cfg), steps=cfg["steps"], accum=cfg["accum"],
                             weight_decay=cfg["weight_decay"], max_grad_norm=cfg["max_grad_norm"])
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _load_ckpt(path) -> Checkpoint:
    try:
        return load_checkpoint(path)
    except (ValueError, OSError) as e:
        raise DataError(f"checkpoint {path}: {e}") from None


def _load_tok(path):
    try:
        return load_tokenizer(path)
    except (ValueError, OSError) as e:
        raise DataError(f"tokenizer {path}: {e}") from None


def _clone(ckpt: Checkpoint) -> Checkpoint:
    params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in ckpt.params.items()}
    return replace(ckpt, params=params)


class RunContext:
    """Resolved input/output roots for one invocation."""

    def __init__(self, command: str, cfg: dict, config_path: Path, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.in_dir = config_path.parent
        self.out_dir = out_dir
        self.config_sha = hashlib.sha256(config_path.read_bytes()).hexdigest()
        self.outputs: list[str] = []

    def inp(self, rel) -> Path:
        return self.in_dir / rel

    def out(self, rel) -> Path:
        p = self.out_dir / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(str(rel))
        return p

    def write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "config_sha256": self.config_sha,
            "seed": self.cfg.get("seed", 0),
            "outputs": sorted(self.outputs),
            "versions": {
                "forge": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
        path = self.out_dir / _manifest_name(self.command)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _chat_batches(ctx: RunContext, tok):
    samples = load_chat_dataset(ctx.inp(ctx.cfg["dataset"]))
    enc = [(r.token_ids, build_loss_mask(r)) for r in (render_chat(s, tok) for s in samples)]
    return pack_samples(enc, max_len=ctx.cfg["max_len"])


def cmd_upscale(ctx: RunContext) -> None:
    ckpt = _load_ckpt(ctx.inp(ctx.cfg["checkpoint"]))
    try:
        spec = UpscaleSpec(n=ckpt.config.n_layers, m=ctx.cfg["m"])
        out = depth_upscale(ckpt, spec)
    except ValueError as e:
        raise ConfigError(f"m: {e}") from None
    save_checkpoint(out, ctx.out(ctx.cfg["output"]))
    print(f"upscaled {ckpt.config.n_layers} -> {out.config.n_layers} layers")


def cmd_merge(ctx: RunContext) -> None:
    ckpts = [_load_ckpt(ctx.inp(p)) for p in ctx.cfg["checkpoints"]]
    merged = merge_checkpoints(ckpts, ctx.cfg["weights"] or [1.0] * len(ckpts))
    save_checkpoint(merged, ctx.out(ctx.cfg["output"]))
    print(f"merged {len(ckpts)} checkpoints")


def cmd_train_sft(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    batches = _chat_batches(ctx, tok)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    rows = train_sft(ckpt, batches, _settings_from(cfg), log_path=log)
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(f"sft: {len(rows)} steps, final loss {rows[-1]['loss']:.6f}")


def cmd_train_dpo(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    pairs = encode_preference_pairs(load_preference_dataset(ctx.inp(cfg["dataset"])), tok)
    ref = _clone(ckpt)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    rows = train_dpo(
        ckpt, ref, pairs, _settings_from(cfg),
        variant=cfg["variant"], beta=cfg["beta"], lam_dpop=cfg["lam_dpop"], log_path=log,
    )
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(f"{cfg['variant']}: {len(rows)} steps, final loss {rows[-1]['loss']:.6f}")


def cmd_train_grpo(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    problems = load_rl_dataset(ctx.inp(cfg["dataset"]))
    ref = _clone(ckpt)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    rows = train_grpo(
        ckpt, ref, problems, tok, _settings_from(cfg),
        group_size=cfg["group_size"], temperature=cfg["temperature"],
        max_tokens=cfg["max_tokens"], clip_eps=cfg["clip_eps"],
        kl_coef=cfg["kl_coef"], variant=cfg["variant"],
        prompts_per_step=cfg["prompts_per_step"], seed=cfg["seed"], log_path=log,
    )
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(
        f"{cfg['variant']}: {len(rows)} steps, "
        f"mean reward {rows[0]['mean_reward']:.3f} -> {rows[-1]['mean_reward']:.3f}"
    )


def cmd_eval(ctx: RunContext) -> None:
    keep_freed_pages()  # each item's cache and logits reuse the pages the last item freed
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    try:
        tasks = load_suite(ctx.inp(cfg["suite"]))
    except (ValueError, OSError, json.JSONDecodeError) as e:
        raise DataError(f"suite: {e}") from None
    csv_path = ctx.out(cfg["monitor_csv"]) if cfg["monitor_csv"] else None
    report = run_suite(ckpt, tasks, step=cfg["step"], csv_path=csv_path)
    ctx.out(cfg["report"]).write_text(report.to_json(), encoding="utf-8")
    for s in report.scores:
        print(f"{s.name}\traw {s.raw:.4f}\tnormalized {s.normalized:.4f}")
    print(f"average\t{report.average:.4f}")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from None


def cmd_tokstats(ctx: RunContext) -> None:
    tok = _load_tok(ctx.inp(ctx.cfg["tokenizer"]))
    lines = ["file\ttokens\tchars\twords\tcpt\ttpw"]
    for rel in ctx.cfg["texts"]:
        text = _read_text(ctx.inp(rel))
        st = token_stats(tok, text)
        cpt = "" if st.cpt is None else f"{st.cpt:.4f}"
        tpw = "" if st.tpw is None else f"{st.tpw:.4f}"
        lines.append(f"{rel}\t{st.tokens}\t{st.chars}\t{st.words}\t{cpt}\t{tpw}")
    body = "\n".join(lines) + "\n"
    ctx.out(ctx.cfg["report"]).write_text(body, encoding="utf-8")
    print(body, end="")


def cmd_scrub(ctx: RunContext) -> None:
    inputs = ctx.cfg["inputs"]
    names = [Path(rel).name for rel in inputs]
    for i, name in enumerate(names):
        if name in names[:i]:  # both would be written to out_dir/<name>
            first = names.index(name)
            raise ConfigError(
                f"inputs[{i}]: {inputs[i]!r} has the file name of inputs[{first}] {inputs[first]!r}"
            )
    lines = ["file\tcategory\tcount"]
    for rel, name in zip(inputs, names):
        text = _read_text(ctx.inp(rel))
        redacted, report = scrub(text)
        ctx.out(Path(ctx.cfg["out_dir"]) / name).write_text(redacted, encoding="utf-8")
        for cat in sorted(report.counts):
            lines.append(f"{name}\t{cat}\t{report.counts[cat]}")
    body = "\n".join(lines) + "\n"
    ctx.out(ctx.cfg["report"]).write_text(body, encoding="utf-8")
    print(body, end="")


def cmd_pack(ctx: RunContext) -> None:
    tok = _load_tok(ctx.inp(ctx.cfg["tokenizer"]))
    batches = _chat_batches(ctx, tok)
    with open(ctx.out(ctx.cfg["output"]), "w", encoding="utf-8") as f:
        for b in batches:
            rec = {
                "token_ids": b.token_ids.tolist(),
                "segment_ids": b.segment_ids.tolist(),
                "loss_mask": b.loss_mask.astype(int).tolist(),
                "positions": b.positions.tolist(),
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"packed {len(batches)} batches")


def cmd_verify(ctx: RunContext) -> None:
    try:
        report = score_corpus(ctx.inp(ctx.cfg["fixtures"]))
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise DataError(f"fixtures: {e}") from None
    ctx.out(ctx.cfg["report"]).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for kind, acc in report["per_kind_accuracy"].items():
        print(f"{kind}\t{acc:.4f}")


COMMANDS = {name: globals()["cmd_" + name.replace("-", "_")] for name in SCHEMAS}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory (default: config dir)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def run(command: str, config_path, out_dir=None, seed=None, environ=None) -> int:
    """Validate, dispatch, write manifest; returns the process exit code.
    numpy floating-point warnings are silenced: a blow-up reports itself as
    one numeric-error line (exit 4), not as warnings ahead of it. A
    ValueError out of a command is the library rejecting its data (an empty
    dataset, an out-of-range token id, a merge that overflows): one
    data-error line (exit 3)."""
    try:
        cfg = validate_config(command, config_path, seed_override=seed, environ=environ)
        config_path = Path(config_path)
        out_root = Path(out_dir) if out_dir is not None else config_path.parent
        out_root.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(command, cfg, config_path, out_root)
        try:
            with np.errstate(all="ignore"):
                COMMANDS[command](ctx)
        except ValueError as e:
            raise DataError(str(e)) from None
        ctx.write_manifest()
        return 0
    except ConfigError as e:
        return _fail("config-error", e, 2)
    except DataError as e:
        return _fail("data-error", e, 3)
    except NumericError as e:
        return _fail("numeric-error", e, 4)


def _fail(kind: str, e: Exception, code: int) -> int:
    """One stderr line, even when the message quotes a value holding newlines."""
    print(f"forge: {kind}: " + str(e).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run(args.command, args.config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
