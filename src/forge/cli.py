"""Config-driven command line tying the pipeline together.

`forge <subcommand> --config <path> [--out <dir>] [--seed <u64>]`

Configs are JSON, validated fail-closed against the subcommand's schema:
unknown keys are errors (with a nearest-key suggestion), missing required
fields and constraint violations name the offending dotted path. Values
can be overridden per run through FORGE_* environment variables (double
underscore nests: FORGE_SCHEDULE__PEAK_LR=1e-3).

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
import os
import platform
import sys
from dataclasses import replace
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

_SCHEDULE_SCHEMA = {
    "peak_lr": None,  # per-stage default filled by caller
    "min_lr": None,
    "warmup_steps": None,
    "total_steps": None,  # None -> steps
    "shape": None,
}


def _schedule_schema(stage_defaults: dict) -> dict:
    schema = dict(_SCHEDULE_SCHEMA)
    schema.update(stage_defaults)
    schema["total_steps"] = None
    return schema


_TRAIN_COMMON = {
    "checkpoint": REQUIRED,
    "tokenizer": REQUIRED,
    "dataset": REQUIRED,
    "output": "model.ckpt",
    "log": None,
    "steps": REQUIRED,
    "accum": 8,
    "max_grad_norm": 1.0,
    "seed": 0,
}

SCHEMAS: dict[str, dict] = {
    "upscale": {
        "checkpoint": REQUIRED,
        "m": REQUIRED,
        "output": "upscaled.ckpt",
        "seed": 0,
    },
    "merge": {
        "checkpoints": REQUIRED,
        "weights": None,
        "output": "merged.ckpt",
        "seed": 0,
    },
    "train-sft": {
        **_TRAIN_COMMON,
        "max_len": 512,
        "weight_decay": 0.05,
        "schedule": _schedule_schema(SFT_SCHEDULE),
    },
    "train-dpo": {
        **_TRAIN_COMMON,
        "variant": "dpo",
        "beta": 0.1,
        "lam_dpop": 5.0,
        "weight_decay": 0.05,
        "schedule": _schedule_schema(DPO_SCHEDULE),
    },
    "train-grpo": {
        **_TRAIN_COMMON,
        "variant": "grpo",
        "group_size": 8,
        "temperature": 1.0,
        "max_tokens": 64,
        "clip_eps": 0.2,
        "kl_coef": 0.001,
        "prompts_per_step": 1,
        "weight_decay": 0.0,
        "schedule": _schedule_schema(RL_SCHEDULE),
    },
    "eval": {
        "checkpoint": REQUIRED,
        "suite": REQUIRED,
        "step": 0,
        "report": "eval_report.json",
        "monitor_csv": None,
        "seed": 0,
    },
    "tokstats": {
        "tokenizer": REQUIRED,
        "texts": REQUIRED,
        "report": "tokstats.tsv",
        "seed": 0,
    },
    "scrub": {
        "inputs": REQUIRED,
        "out_dir": "scrubbed",
        "report": "scrub_report.tsv",
        "seed": 0,
    },
    "pack": {
        "tokenizer": REQUIRED,
        "dataset": REQUIRED,
        "max_len": REQUIRED,
        "output": "packed.jsonl",
        "seed": 0,
    },
    "verify": {
        "fixtures": REQUIRED,
        "report": "verify_report.json",
        "seed": 0,
    },
}

# config keys naming input files/directories, checked for existence up front
_PATH_KEYS = {"checkpoint", "tokenizer", "dataset", "suite", "fixtures"}
_PATH_LIST_KEYS = {"checkpoints", "texts", "inputs"}

ENV_PREFIX = "FORGE_"


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _validate_section(raw: dict, schema: dict, at: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{at or 'config'}: expected an object")
    out = {}
    for key, value in raw.items():
        path = f"{at}.{key}" if at else key
        if key not in schema:
            raise ConfigError(f"unknown key {path!r}{_suggest(key, schema)}")
        spec = schema[key]
        if isinstance(spec, dict):
            out[key] = _validate_section(value, spec, path)
        else:
            out[key] = value
    for key, spec in schema.items():
        if key in out:
            continue
        path = f"{at}.{key}" if at else key
        if spec is REQUIRED:
            raise ConfigError(f"missing required key {path!r}")
        out[key] = dict(spec) if isinstance(spec, dict) else spec
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


def _check_paths(cfg: dict, base: Path) -> None:
    for key in sorted(_PATH_KEYS & cfg.keys()):
        if cfg[key] is None:
            continue
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key}: expected a path string, got {cfg[key]!r}")
        p = base / cfg[key]
        if not p.exists():
            raise ConfigError(f"{key}: path does not exist: {p}")
    for key in sorted(_PATH_LIST_KEYS & cfg.keys()):
        items = cfg[key]
        if not isinstance(items, list) or not items:
            raise ConfigError(f"{key}: expected a non-empty list of paths")
        for i, item in enumerate(items):
            if not isinstance(item, str):
                raise ConfigError(f"{key}[{i}]: expected a path string, got {item!r}")
            p = base / item
            if not p.exists():
                raise ConfigError(f"{key}[{i}]: path does not exist: {p}")


def _check_number(value, path: str, integer: bool) -> None:
    """Reject a leaf that is compared numerically but is not a (whole) number."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{path}: expected {'an integer' if integer else 'a number'}, got {value!r}")


def _cross_checks(command: str, cfg: dict, user_set) -> None:
    for key, integer in (("steps", True), ("accum", True), ("max_grad_norm", False), ("temperature", False)):
        if key in cfg:
            _check_number(cfg[key], key, integer)
    if "schedule" in cfg:
        sched = cfg["schedule"]
        if sched["total_steps"] is None:
            sched["total_steps"] = cfg["steps"]
        for key in ("warmup_steps", "total_steps"):
            _check_number(sched[key], f"schedule.{key}", integer=True)
        if sched["warmup_steps"] > sched["total_steps"]:
            if ("schedule", "warmup_steps") in user_set:
                raise ConfigError(
                    f"schedule.warmup_steps ({sched['warmup_steps']}) exceeds "
                    f"schedule.total_steps ({sched['total_steps']})"
                )
            # stage-default warmup on a short run: clamp to the budget
            sched["warmup_steps"] = sched["total_steps"]
    if command == "train-dpo" and cfg["variant"] not in ("dpo", "dpop"):
        raise ConfigError(f"variant: must be dpo or dpop, got {cfg['variant']!r}")
    if command == "train-grpo":
        if cfg["variant"] not in ("grpo", "dr_grpo"):
            raise ConfigError(f"variant: must be grpo or dr_grpo, got {cfg['variant']!r}")
        if not isinstance(cfg["group_size"], int) or cfg["group_size"] < 2:
            raise ConfigError(f"group_size: must be an integer >= 2, got {cfg['group_size']!r}")
        if cfg["temperature"] <= 0:
            raise ConfigError(f"temperature: must be positive, got {cfg['temperature']!r}")


def validate_config(command: str, config_path, seed_override=None, environ=None) -> dict:
    """Parsed, defaulted, overridden, cross-checked run config."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}{_suggest(command, SCHEMAS)}")
    config_path = Path(config_path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {config_path}:{e.lineno}: {e.msg}") from None
    cfg = _validate_section(raw, SCHEMAS[command], "")
    user_set = _user_paths(raw) | _apply_env_overrides(cfg, SCHEMAS[command], environ)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if not isinstance(cfg["seed"], int) or cfg["seed"] < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {cfg['seed']!r}")
    _check_paths(cfg, config_path.parent)
    _cross_checks(command, cfg, user_set)
    return cfg


def _schedule_from(cfg: dict) -> ScheduleSpec:
    s = cfg["schedule"]
    try:
        return ScheduleSpec(
            peak_lr=s["peak_lr"], min_lr=s["min_lr"],
            warmup_steps=s["warmup_steps"], total_steps=s["total_steps"],
            shape=s["shape"],
        )
    except ValueError as e:
        raise ConfigError(f"schedule: {e}") from None


def _settings_from(cfg: dict) -> TrainSettings:
    try:
        return TrainSettings(
            spec=_schedule_from(cfg),
            steps=cfg["steps"],
            accum=cfg["accum"],
            weight_decay=cfg["weight_decay"],
            max_grad_norm=cfg["max_grad_norm"],
        )
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
        path = self.out_dir / f"{self.command.replace('-', '_')}_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _chat_batches(ctx: RunContext, tok):
    try:
        samples = load_chat_dataset(ctx.inp(ctx.cfg["dataset"]))
        enc = [(r.token_ids, build_loss_mask(r)) for r in (render_chat(s, tok) for s in samples)]
        return pack_samples(enc, max_len=ctx.cfg["max_len"])
    except ValueError as e:
        raise DataError(str(e)) from None


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
    weights = ctx.cfg["weights"] or [1.0] * len(ckpts)
    try:
        merged = merge_checkpoints(ckpts, weights)
    except ValueError as e:
        raise DataError(str(e)) from None
    save_checkpoint(merged, ctx.out(ctx.cfg["output"]))
    print(f"merged {len(ckpts)} checkpoints")


def cmd_train_sft(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    batches = _chat_batches(ctx, tok)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    try:
        rows = train_sft(ckpt, batches, _settings_from(cfg), log_path=log)
    except ValueError as e:  # empty or degenerate dataset
        raise DataError(str(e)) from None
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(f"sft: {len(rows)} steps, final loss {rows[-1]['loss']:.6f}")


def cmd_train_dpo(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    try:
        pairs = encode_preference_pairs(load_preference_dataset(ctx.inp(cfg["dataset"])), tok)
    except ValueError as e:
        raise DataError(str(e)) from None
    ref = _clone(ckpt)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    try:
        rows = train_dpo(
            ckpt, ref, pairs, _settings_from(cfg),
            variant=cfg["variant"], beta=cfg["beta"], lam_dpop=cfg["lam_dpop"], log_path=log,
        )
    except ValueError as e:
        raise DataError(str(e)) from None
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(f"{cfg['variant']}: {len(rows)} steps, final loss {rows[-1]['loss']:.6f}")


def cmd_train_grpo(ctx: RunContext) -> None:
    cfg = ctx.cfg
    ckpt = _load_ckpt(ctx.inp(cfg["checkpoint"]))
    tok = _load_tok(ctx.inp(cfg["tokenizer"]))
    try:
        problems = load_rl_dataset(ctx.inp(cfg["dataset"]))
    except ValueError as e:
        raise DataError(str(e)) from None
    ref = _clone(ckpt)
    log = ctx.out(cfg["log"]) if cfg["log"] else None
    try:
        rows = train_grpo(
            ckpt, ref, problems, tok, _settings_from(cfg),
            group_size=cfg["group_size"], temperature=cfg["temperature"],
            max_tokens=cfg["max_tokens"], clip_eps=cfg["clip_eps"],
            kl_coef=cfg["kl_coef"], variant=cfg["variant"],
            prompts_per_step=cfg["prompts_per_step"], seed=cfg["seed"], log_path=log,
        )
    except ValueError as e:
        raise DataError(str(e)) from None
    save_checkpoint(ckpt, ctx.out(cfg["output"]))
    print(
        f"{cfg['variant']}: {len(rows)} steps, "
        f"mean reward {rows[0]['mean_reward']:.3f} -> {rows[-1]['mean_reward']:.3f}"
    )


def cmd_eval(ctx: RunContext) -> None:
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


def cmd_tokstats(ctx: RunContext) -> None:
    tok = _load_tok(ctx.inp(ctx.cfg["tokenizer"]))
    lines = ["file\ttokens\tchars\twords\tcpt\ttpw"]
    for rel in ctx.cfg["texts"]:
        text = ctx.inp(rel).read_text(encoding="utf-8")
        st = token_stats(tok, text)
        cpt = "" if st.cpt is None else f"{st.cpt:.4f}"
        tpw = "" if st.tpw is None else f"{st.tpw:.4f}"
        lines.append(f"{rel}\t{st.tokens}\t{st.chars}\t{st.words}\t{cpt}\t{tpw}")
    body = "\n".join(lines) + "\n"
    ctx.out(ctx.cfg["report"]).write_text(body, encoding="utf-8")
    print(body, end="")


def cmd_scrub(ctx: RunContext) -> None:
    lines = ["file\tcategory\tcount"]
    for rel in ctx.cfg["inputs"]:
        text = ctx.inp(rel).read_text(encoding="utf-8")
        redacted, report = scrub(text)
        name = Path(rel).name
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


COMMANDS = {
    "upscale": cmd_upscale,
    "merge": cmd_merge,
    "train-sft": cmd_train_sft,
    "train-dpo": cmd_train_dpo,
    "train-grpo": cmd_train_grpo,
    "eval": cmd_eval,
    "tokstats": cmd_tokstats,
    "scrub": cmd_scrub,
    "pack": cmd_pack,
    "verify": cmd_verify,
}


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
    """Validate, dispatch, write manifest; returns the process exit code."""
    try:
        cfg = validate_config(command, config_path, seed_override=seed, environ=environ)
        config_path = Path(config_path)
        out_root = Path(out_dir) if out_dir is not None else config_path.parent
        out_root.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(command, cfg, config_path, out_root)
        COMMANDS[command](ctx)
        ctx.write_manifest()
        return 0
    except ConfigError as e:
        print(f"forge: config-error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"forge: data-error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"forge: numeric-error: {e}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run(args.command, args.config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
