"""Command line: config validation, overrides, exit codes, artifact determinism."""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge.checkpoint import load_checkpoint, save_checkpoint
from forge.cli import REQUIRED, SCHEMAS, ConfigError, run, validate_config
from forge.datapipe.tokenizer import TokenizerModel, allocate_chat_specials, save_tokenizer
from forge.model import ModelConfig, init_params
from forge.rng import named_rng
from test_tokenizer import write_repeated_merge_tokenizer

FIX = Path(__file__).parent / "fixtures"

TOK = allocate_chat_specials([], n_reserved=8)


def toy_config(n_layers=1):
    return ModelConfig(
        n_layers=n_layers, d_model=16, n_heads=2, n_kv_heads=1, head_size=8,
        d_ff=32, vocab_size=TOK.vocab_size, rope_theta=1e4,
        native_ctx=64, extended_ctx=64, rmsnorm_eps=1e-6,
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def populate(dirpath):
    """Tokenizer, one-layer checkpoint and the three training datasets."""
    save_tokenizer(TOK, dirpath / "tok.json")
    ckpt = init_params(toy_config(), named_rng(11, "cli-test"), dtype=np.float32)
    save_checkpoint(ckpt, dirpath / "base.ckpt")
    shutil.copy(FIX / "sft_dialogues.jsonl", dirpath / "sft.jsonl")
    shutil.copy(FIX / "preference_pairs.jsonl", dirpath / "pairs.jsonl")
    shutil.copy(FIX / "rl_math.jsonl", dirpath / "rl.jsonl")
    return dirpath


@pytest.fixture
def workdir(tmp_path):
    return populate(tmp_path)


def sft_config(steps=2, **extra):
    cfg = {
        "checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "sft.jsonl",
        "steps": steps, "accum": 1, "max_len": 96,
        "schedule": {"peak_lr": 1e-3, "warmup_steps": 1},
    }
    cfg.update(extra)
    return cfg


# validation


def test_unknown_key_suggestion(tmp_path):
    p = write_json(tmp_path / "c.json", {"checkpoint": "x", "m": 1, "outpt": "y"})
    with pytest.raises(ConfigError, match=r"unknown key 'outpt'.*did you mean 'output'"):
        validate_config("upscale", p, environ={})


def test_nested_unknown_key_dotted_path(workdir):
    cfg = sft_config()
    cfg["schedule"] = {"pek_lr": 1e-3}
    p = write_json(workdir / "c.json", cfg)
    with pytest.raises(ConfigError, match=r"schedule\.pek_lr.*did you mean 'peak_lr'"):
        validate_config("train-sft", p, environ={})


def test_missing_required_key_named(tmp_path):
    p = write_json(tmp_path / "c.json", {"checkpoint": "x"})
    with pytest.raises(ConfigError, match=r"missing required key 'm'"):
        validate_config("upscale", p, environ={})


def test_invalid_json_reports_location(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{\n  broken\n}", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"not valid JSON.*:2:"):
        validate_config("upscale", p, environ={})


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        validate_config("upscale", tmp_path / "absent.json", environ={})


def test_unknown_command_suggestion(tmp_path):
    p = write_json(tmp_path / "c.json", {})
    with pytest.raises(ConfigError, match=r"unknown command 'trian-sft'.*train-sft"):
        validate_config("trian-sft", p, environ={})


def test_defaults_filled(workdir):
    p = write_json(
        workdir / "c.json",
        {"checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "sft.jsonl", "steps": 4},
    )
    cfg = validate_config("train-sft", p, environ={})
    assert cfg["accum"] == 8
    assert cfg["weight_decay"] == 0.05
    assert cfg["max_len"] == 512
    assert cfg["schedule"]["peak_lr"] == 5e-6
    assert cfg["schedule"]["shape"] == "constant"
    # total_steps defaults to the run's step budget; the defaulted warmup
    # (100) clamps to it rather than rejecting a short run
    assert cfg["schedule"]["total_steps"] == 4
    assert cfg["schedule"]["warmup_steps"] == 4

    cfg_long = dict(json.loads(p.read_text()), steps=400)
    p2 = write_json(p.parent / "c2.json", cfg_long)
    assert validate_config("train-sft", p2, environ={})["schedule"]["warmup_steps"] == 100


def test_warmup_exceeding_total_names_both_fields(workdir):
    cfg = sft_config(steps=3)
    cfg["schedule"]["warmup_steps"] = 10
    p = write_json(workdir / "c.json", cfg)
    with pytest.raises(ConfigError, match=r"schedule\.warmup_steps \(10\).*schedule\.total_steps \(3\)"):
        validate_config("train-sft", p, environ={})


def test_referenced_path_checked_at_validation(workdir):
    cfg = sft_config()
    cfg["dataset"] = "nope.jsonl"
    p = write_json(workdir / "c.json", cfg)
    with pytest.raises(ConfigError, match="dataset: path does not exist"):
        validate_config("train-sft", p, environ={})


def test_grpo_hyperparams_checked(workdir):
    base = {
        "checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "rl.jsonl",
        "steps": 1, "schedule": {"peak_lr": 1e-3, "warmup_steps": 0},
    }
    p = write_json(workdir / "c.json", {**base, "group_size": 1})
    with pytest.raises(ConfigError, match="group_size"):
        validate_config("train-grpo", p, environ={})
    p = write_json(workdir / "c.json", {**base, "temperature": 0.0})
    with pytest.raises(ConfigError, match="temperature"):
        validate_config("train-grpo", p, environ={})
    p = write_json(workdir / "c.json", {**base, "variant": "ppo"})
    with pytest.raises(ConfigError, match="variant"):
        validate_config("train-grpo", p, environ={})


# environment and seed overrides


def test_env_override_top_level_and_nested(workdir):
    p = write_json(workdir / "c.json", sft_config(steps=2))
    env = {"FORGE_STEPS": "7", "FORGE_SCHEDULE__PEAK_LR": "5e-3"}
    cfg = validate_config("train-sft", p, environ=env)
    assert cfg["steps"] == 7
    assert cfg["schedule"]["peak_lr"] == 5e-3
    assert cfg["schedule"]["total_steps"] == 7


def test_env_override_string_value(workdir):
    p = write_json(workdir / "c.json", sft_config())
    cfg = validate_config("train-sft", p, environ={"FORGE_OUTPUT": "other.ckpt"})
    assert cfg["output"] == "other.ckpt"


def test_env_unknown_key_fails_closed(workdir):
    p = write_json(workdir / "c.json", sft_config())
    with pytest.raises(ConfigError, match=r"FORGE_STEPZ.*did you mean 'steps'"):
        validate_config("train-sft", p, environ={"FORGE_STEPZ": "3"})


def test_env_section_is_not_a_value(workdir):
    p = write_json(workdir / "c.json", sft_config())
    with pytest.raises(ConfigError, match="section, not a value"):
        validate_config("train-sft", p, environ={"FORGE_SCHEDULE": "{}"})


def test_seed_precedence_flag_beats_env_beats_config(workdir):
    p = write_json(workdir / "c.json", sft_config(seed=1))
    assert validate_config("train-sft", p, environ={})["seed"] == 1
    assert validate_config("train-sft", p, environ={"FORGE_SEED": "2"})["seed"] == 2
    assert validate_config("train-sft", p, environ={"FORGE_SEED": "2"}, seed_override=3)["seed"] == 3


# exit codes


def test_exit_2_on_config_error(workdir, capsys):
    p = write_json(workdir / "c.json", {"checkpoint": "missing.ckpt", "m": 0})
    assert run("upscale", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_exit_2_on_config_that_cannot_be_read_as_text(workdir, capsys, kind):
    p = workdir / "c.json"
    if kind == "directory":
        p.mkdir()
    else:
        p.write_bytes(b"\xff\xfe{}")
    assert run("upscale", p, environ={}) == 2
    err = capsys.readouterr().err
    message = "config cannot be read" if kind == "directory" else "config is not UTF-8 text"
    assert err.startswith(f"forge: config-error: {message}: {p}") and err.count("\n") == 1, err


def test_error_is_one_line_when_a_value_holds_newlines(workdir, capsys):
    p = write_json(workdir / "c.json", {"checkpoint": "a\nb.ckpt", "m": 0})
    assert run("upscale", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error: checkpoint: path does not exist:") and err.count("\n") == 1


GRPO_BASE = {
    "checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "rl.jsonl",
    "steps": 1, "schedule": {"peak_lr": 1e-3, "warmup_steps": 0},
}
DPO_BASE = {**GRPO_BASE, "dataset": "pairs.jsonl"}
EVAL_BASE = {"checkpoint": "base.ckpt", "suite": "suite.json"}


@pytest.mark.parametrize("command,cfg,env,key", [
    ("upscale", {"checkpoint": "base.ckpt", "m": 0.5}, {}, "m"),
    ("upscale", {"checkpoint": "base.ckpt", "m": False}, {}, "m"),
    ("train-sft", sft_config(), {"FORGE_STEPS": '"abc"'}, "steps"),
    ("train-sft", sft_config(), {"FORGE_ACCUM": "1.5"}, "accum"),
    ("train-sft", sft_config(), {"FORGE_MAX_GRAD_NORM": '"big"'}, "max_grad_norm"),
    ("train-sft", sft_config(), {"FORGE_SCHEDULE__WARMUP_STEPS": "true"}, "schedule.warmup_steps"),
    ("train-sft", sft_config(), {"FORGE_SCHEDULE__TOTAL_STEPS": '"3"'}, "schedule.total_steps"),
    ("train-grpo", GRPO_BASE, {"FORGE_TEMPERATURE": "[1]"}, "temperature"),
    ("train-sft", sft_config(), {"FORGE_SCHEDULE__PEAK_LR": "null"}, "schedule.peak_lr"),
    ("train-sft", sft_config(), {"FORGE_SCHEDULE__MIN_LR": '"abc"'}, "schedule.min_lr"),
    ("train-sft", sft_config(), {"FORGE_MAX_LEN": '"x"'}, "max_len"),
    ("train-dpo", DPO_BASE, {"FORGE_BETA": "[]"}, "beta"),
    ("train-sft", sft_config(), {"FORGE_OUTPUT": "0"}, "output"),
    ("eval", EVAL_BASE, {"FORGE_STEP": '"x"'}, "step"),
], ids=["m-float", "m-bool", "steps", "accum", "max_grad_norm", "warmup_steps", "total_steps", "temperature",
        "peak_lr", "min_lr", "max_len", "beta", "output", "eval-step"])
def test_exit_2_on_mistyped_number(workdir, capsys, command, cfg, env, key):
    make_eval_suite(workdir)
    p = write_json(workdir / "c.json", cfg)
    assert run(command, p, environ=env) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"forge: config-error: {key}:") and err.count("\n") == 1


def test_exit_3_on_malformed_dataset(workdir, capsys):
    (workdir / "sft.jsonl").write_text('{"messages": [\n', encoding="utf-8")
    p = write_json(workdir / "c.json", sft_config())
    assert run("train-sft", p, environ={}) == 3
    assert capsys.readouterr().err.startswith("forge: data-error:")
    # a truncated tokenizer file is a data error too, not a traceback
    (workdir / "tok.json").write_text("forge-tokenizer 1\nvocab 300\n0 00\n", encoding="utf-8")
    assert run("train-sft", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "tok.json" in err and err.count("\n") == 1


def test_exit_3_on_empty_dataset(workdir, capsys):
    (workdir / "sft.jsonl").write_text("", encoding="utf-8")
    p = write_json(workdir / "c.json", sft_config())
    assert run("train-sft", p, environ={}) == 3
    assert capsys.readouterr().err.startswith("forge: data-error:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_4_on_numeric_blowup(workdir, capsys):
    # a saved checkpoint is always finite, so force the failure dynamically:
    # an absurd learning rate overflows f32 within a couple of updates
    cfg = sft_config(steps=5)
    cfg["schedule"]["peak_lr"] = 1e8
    cfg["schedule"]["warmup_steps"] = 0
    p = write_json(workdir / "c.json", cfg)
    assert run("train-sft", p, environ={}) == 4
    assert capsys.readouterr().err.startswith("forge: numeric-error:")


def test_exit_4_prints_one_stderr_line_from_the_module(workdir):
    # pytest's warnings plugin hides numpy RuntimeWarnings in-process, so
    # only a child process shows what a user sees on stderr
    import os

    cfg = sft_config(steps=5)
    cfg["schedule"]["peak_lr"] = 1e8
    cfg["schedule"]["warmup_steps"] = 0
    p = write_json(workdir / "c.json", cfg)
    env = {k: v for k, v in os.environ.items() if not k.startswith("FORGE_")}
    r = subprocess.run(
        [sys.executable, "-m", "forge.cli", "train-sft", "--config", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 4
    assert r.stderr.startswith("forge: numeric-error:") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("command,cfg", [
    ("tokstats", {"tokenizer": "tok.json", "texts": ["ok.txt", "bad.txt"]}),
    ("scrub", {"inputs": ["ok.txt", "bad.txt"]}),
])
def test_exit_3_on_non_utf8_text(workdir, capsys, command, cfg):
    (workdir / "ok.txt").write_text("ala ma kota\n", encoding="utf-8")
    (workdir / "bad.txt").write_bytes(b"\xff\xfeala")
    p = write_json(workdir / "c.json", cfg)
    assert run(command, p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "bad.txt" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command,cfg", [
    ("tokstats", {"tokenizer": "rep.txt", "texts": ["ok.txt"]}),
    ("pack", {"tokenizer": "rep.txt", "dataset": "sft.jsonl", "max_len": 64}),
])
def test_exit_3_on_tokenizer_with_a_repeated_merge(workdir, capsys, command, cfg):
    (workdir / "ok.txt").write_text("ala ma kota\n", encoding="utf-8")
    write_repeated_merge_tokenizer(workdir / "rep.txt")
    assert run(command, write_json(workdir / "c.json", cfg), environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "merge 1 repeats merge 0: (97, 98)" in err, err
    assert "rep.txt" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("command,cfg", [
    ("pack", {"tokenizer": "tok.json", "dataset": "sft.jsonl", "max_len": 64}),
    ("train-sft", sft_config(steps=1)),
    ("train-dpo", DPO_BASE),
    ("train-grpo", {**GRPO_BASE, "group_size": 2, "max_tokens": 4}),
])
def test_exit_3_on_tokenizer_without_the_chat_specials(workdir, capsys, command, cfg):
    # the checkpoint's vocabulary size, with every reserved slot unnamed
    save_tokenizer(TokenizerModel(merges=[], specials={}, n_reserved=8), workdir / "tok.json")
    assert run(command, write_json(workdir / "c.json", cfg), environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "no special token '<|end|>'" in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command,cfg", [
    ("train-dpo", DPO_BASE),
    ("train-grpo", {**GRPO_BASE, "group_size": 2, "max_tokens": 4}),
])
def test_every_model_forward_of_a_training_stage_is_taped(workdir, monkeypatch, command, cfg):
    # the frozen reference is scored on decode's kernel, not through forward
    from forge import tensor as T
    from forge.train import loops

    taped, original = [], loops.forward

    def recording(*args, **kwargs):
        taped.append(T._current_graph() is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(loops, "forward", recording)
    assert run(command, write_json(workdir / "c.json", cfg), environ={}) == 0
    assert taped and all(taped), taped


@pytest.mark.parametrize("out_dir,report", [
    ("same", "same"),
    ("out/clean", "out"),  # the report would be a file where the directory is
    ("clean", "clean/report.tsv"),  # the report would sit among the scrubbed files
])
def test_exit_2_when_scrub_outputs_overlap(workdir, capsys, out_dir, report):
    (workdir / "ok.txt").write_text("ala ma kota\n", encoding="utf-8")
    p = write_json(workdir / "c.json", {"inputs": ["ok.txt"], "out_dir": out_dir, "report": report})
    assert run("scrub", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error: report:") and err.count("\n") == 1, err
    assert not (workdir / out_dir).exists()


@pytest.mark.parametrize("key", ["report", "out_dir"])
def test_exit_2_when_an_output_takes_the_manifest_name(workdir, capsys, key):
    (workdir / "ok.txt").write_text("ala ma kota\n", encoding="utf-8")
    p = write_json(workdir / "c.json", {"inputs": ["ok.txt"], key: "scrub_manifest.json"})
    assert run("scrub", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"forge: config-error: {key}:") and err.count("\n") == 1, err
    assert not (workdir / "scrub_manifest.json").exists()


def test_exit_2_when_scrub_inputs_share_a_file_name(workdir, capsys):
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
        (workdir / sub / "x.txt").write_text(f"{sub} pisze na a@b.pl\n", encoding="utf-8")
    (workdir / "ok.txt").write_text("ala ma kota\n", encoding="utf-8")
    p = write_json(workdir / "c.json", {"inputs": ["ok.txt", "a/x.txt", "b/x.txt"]})
    assert run("scrub", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error: inputs[2]: 'b/x.txt'") and err.count("\n") == 1, err
    assert not (workdir / "scrubbed").exists()


def test_exit_2_when_two_outputs_share_a_name(workdir, capsys):
    p = write_json(workdir / "c.json", sft_config(output="run.out", log="run.out"))
    assert run("train-sft", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error: log:") and err.count("\n") == 1, err


OVERWRITING_RUNS = [
    # (command, config file, config, output key, input the output lands on)
    ("train-sft", "c.json", sft_config(output="base.ckpt"), "output", "base.ckpt"),
    ("verify", "v.json", {"fixtures": str(FIX / "verifier_golden.jsonl"), "report": "v.json"}, "report", "v.json"),
    ("scrub", "s.json", {"inputs": ["texts/doc0.txt"], "out_dir": "texts"}, "out_dir", "texts/doc0.txt"),
]


@pytest.mark.parametrize("command,name,cfg,key,kept", OVERWRITING_RUNS, ids=[r[0] for r in OVERWRITING_RUNS])
def test_exit_2_when_an_output_would_overwrite_an_input(workdir, tmp_path, capsys, command, name, cfg, key, kept):
    (workdir / "texts").mkdir()
    (workdir / "texts" / "doc0.txt").write_text("pisz na a@b.pl\n", encoding="utf-8")
    p = write_json(workdir / name, cfg)
    before = (workdir / kept).read_bytes()
    assert run(command, p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"forge: config-error: {key}: ") and err.count("\n") == 1, err
    assert (workdir / kept).read_bytes() == before
    # the same names under another output directory overwrite nothing
    assert run(command, p, out_dir=tmp_path / "elsewhere", environ={}) == 0
    assert (workdir / kept).read_bytes() == before


@pytest.mark.parametrize("key,body,message", [
    ("checkpoint", lambda ws: b"not a checkpoint\n", "missing payload marker"),
    ("checkpoint", lambda ws: (ws / "base.ckpt").read_bytes()[:-4] + np.float32(np.nan).tobytes(),
     "checkpoint tensor"),
    ("tokenizer", lambda ws: b"forge-tokenizer 1\nvocab 300\n0 00\n", "malformed tokenizer file"),
    ("tokenizer", lambda ws: b"\xff\xfe", "not UTF-8 text"),
], ids=["checkpoint", "non-finite-checkpoint", "tokenizer", "non-utf8-tokenizer"])
def test_data_errors_name_the_key_and_the_path_once(workdir, capsys, key, body, message):
    (workdir / "bad.bin").write_bytes(body(workdir))
    p = write_json(workdir / "c.json", sft_config(**{key: "bad.bin"}))
    assert run("train-sft", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"forge: data-error: {key}: {workdir / 'bad.bin'}: {message}"), err
    assert err.count("bad.bin") == 1 and err.count("\n") == 1, err


def test_exit_0_prints_no_stderr(workdir, capsys):
    p = write_json(workdir / "up.json", {"checkpoint": "base.ckpt", "m": 0})
    assert run("upscale", p, environ={}) == 0
    assert capsys.readouterr().err == ""


# subcommand behavior


def test_upscale_writes_deeper_checkpoint(workdir):
    p = write_json(workdir / "up.json", {"checkpoint": "base.ckpt", "m": 0, "output": "up.ckpt"})
    assert run("upscale", p, environ={}) == 0
    out = load_checkpoint(workdir / "up.ckpt")
    assert out.config.n_layers == 2


def test_merge_self_average_is_identity(workdir):
    p = write_json(
        workdir / "m.json",
        {"checkpoints": ["base.ckpt", "base.ckpt"], "weights": [0.5, 0.5], "output": "avg.ckpt"},
    )
    assert run("merge", p, environ={}) == 0
    base = load_checkpoint(workdir / "base.ckpt")
    merged = load_checkpoint(workdir / "avg.ckpt")
    for name, param in base.params.items():
        np.testing.assert_allclose(merged.params[name].data, param.data, rtol=0, atol=1e-7)


def test_exit_3_when_merge_weights_overflow(workdir, capsys):
    # finite weights whose products and sum overflow give a non-finite merge
    p = write_json(
        workdir / "m.json",
        {"checkpoints": ["base.ckpt", "base.ckpt"], "weights": [1e308, 1e308], "output": "avg.ckpt"},
    )
    assert run("merge", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "non-finite" in err and err.count("\n") == 1, err
    assert not (workdir / "avg.ckpt").exists()


@pytest.mark.parametrize("weights, message", [
    ([0.5, 0.5, 0.5], "2 checkpoints but 3 weights"),
    ([1.0, -0.5], "non-negative"),
    ([0.0, 0.0], "all zero"),
    ([], "2 checkpoints but 0 weights"),  # an empty list is no list of equal weights
])
def test_exit_2_on_bad_merge_weights(workdir, capsys, weights, message):
    p = write_json(workdir / "m.json", {"checkpoints": ["base.ckpt", "base.ckpt"], "weights": weights,
                                        "output": "avg.ckpt"})
    assert run("merge", p, environ={}) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: config-error: weights:") and message in err and err.count("\n") == 1, err
    assert not (workdir / "avg.ckpt").exists()


@pytest.mark.parametrize("magic", [b"forge-checkpoint ", b"forge-checkpoint x", b"forge-checkpoint 1 1"])
def test_exit_3_on_malformed_checkpoint_header(workdir, capsys, magic):
    ckpt = workdir / "base.ckpt"
    ckpt.write_bytes(magic + b"\n" + ckpt.read_bytes().split(b"\n", 1)[1])
    p = write_json(workdir / "up.json", {"checkpoint": "base.ckpt", "m": 0, "output": "up.ckpt"})
    assert run("upscale", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: checkpoint") and "base.ckpt" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("field, value", [("rope_theta", 0.0), ("rmsnorm_eps", -1.0), ("extended_ctx", 0)])
def test_exit_3_on_checkpoint_config_that_breaks_forward(workdir, capsys, field, value):
    # such a header merged with exit 0 and evaluated to non-finite logits
    ckpt = workdir / "base.ckpt"
    magic, config, rest = ckpt.read_bytes().split(b"\n", 2)
    header = json.loads(config[len(b"config "):])
    header[field] = value
    ckpt.write_bytes(magic + b"\nconfig " + json.dumps(header).encode() + b"\n" + rest)
    p = write_json(workdir / "m.json", {"checkpoints": ["base.ckpt", "base.ckpt"], "output": "avg.ckpt"})
    assert run("merge", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: checkpoint") and f"{ckpt}" in err and field in err, err
    assert err.count("\n") == 1 and not (workdir / "avg.ckpt").exists(), err


def test_sft_artifacts_and_manifest(workdir):
    p = write_json(workdir / "c.json", sft_config(steps=3, log="train.csv", seed=5))
    out = workdir / "run"
    assert run("train-sft", p, out_dir=out, environ={}) == 0

    load_checkpoint(out / "model.ckpt")  # parses
    log_lines = (out / "train.csv").read_text().strip().splitlines()
    assert log_lines[0] == "step,lr,loss,grad_norm"
    assert len(log_lines) == 4

    manifest = json.loads((out / "train_sft_manifest.json").read_text())
    assert manifest["command"] == "train-sft"
    assert manifest["seed"] == 5
    assert manifest["config_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
    assert manifest["outputs"] == ["model.ckpt", "train.csv"]
    assert set(manifest["versions"]) == {"forge", "numpy", "python"}
    assert "timestamp" not in json.dumps(manifest).lower()


def test_inputs_resolve_from_config_dir_outputs_under_out(workdir, tmp_path):
    out = tmp_path / "elsewhere"
    p = write_json(workdir / "c.json", sft_config())
    assert run("train-sft", p, out_dir=out, environ={}) == 0
    assert (out / "model.ckpt").exists()
    assert not (workdir / "model.ckpt").exists()


def test_pack_writes_jsonl_batches(workdir):
    p = write_json(
        workdir / "p.json",
        {"tokenizer": "tok.json", "dataset": "sft.jsonl", "max_len": 64, "output": "packed.jsonl"},
    )
    assert run("pack", p, environ={}) == 0
    lines = (workdir / "packed.jsonl").read_text().strip().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        n = len(rec["token_ids"])
        assert 0 < n <= 64
        assert len(rec["segment_ids"]) == len(rec["loss_mask"]) == len(rec["positions"]) == n
        assert set(rec["loss_mask"]) <= {0, 1}


def test_scrub_exact_counts_and_idempotence(tmp_path):
    cfg = {
        "inputs": [str(FIX / "scrub_corpus" / n) for n in ("pii_a.txt", "pii_b.txt", "clean.txt")],
        "out_dir": "clean",
        "report": "report.tsv",
    }
    p = write_json(tmp_path / "s.json", cfg)
    assert run("scrub", p, environ={}) == 0

    rows = (tmp_path / "report.tsv").read_text().strip().splitlines()
    assert rows[0] == "file\tcategory\tcount"
    got = {}
    for row in rows[1:]:
        fname, cat, count = row.split("\t")
        got[(fname, cat)] = int(count)
    assert got == {
        ("pii_a.txt", "EMAIL"): 1,
        ("pii_a.txt", "PESEL"): 1,
        ("pii_a.txt", "PHONE"): 1,
        ("pii_a.txt", "URL"): 2,
        ("pii_b.txt", "EMAIL"): 2,
        ("pii_b.txt", "PHONE"): 2,
        ("pii_b.txt", "URL"): 1,
    }

    # scrubbing already-scrubbed text finds nothing more
    from forge.datapipe.scrub import scrub

    for name in ("pii_a.txt", "pii_b.txt", "clean.txt"):
        redacted = (tmp_path / "clean" / name).read_text(encoding="utf-8")
        again, report = scrub(redacted)
        assert again == redacted
        assert report.counts == {}
    # the invalid checksum id was left alone
    assert "44051401358" in (tmp_path / "clean" / "pii_b.txt").read_text()


def test_tokstats_counts(workdir):
    (workdir / "sample.txt").write_text("ala ma kota\n", encoding="utf-8")
    p = write_json(
        workdir / "t.json", {"tokenizer": "tok.json", "texts": ["sample.txt"], "report": "stats.tsv"}
    )
    assert run("tokstats", p, environ={}) == 0
    rows = (workdir / "stats.tsv").read_text().strip().splitlines()
    assert rows[0] == "file\ttokens\tchars\twords\tcpt\ttpw"
    # byte tokenizer with no merges: 12 bytes, 12 chars, 3 words
    assert rows[1] == "sample.txt\t12\t12\t3\t1.0000\t4.0000"


def test_verify_runs_golden_corpus(workdir):
    p = write_json(
        workdir / "v.json",
        {"fixtures": str(FIX / "verifier_golden.jsonl"), "report": "verify.json"},
    )
    assert run("verify", p, environ={}) == 0
    report = json.loads((workdir / "verify.json").read_text())
    assert report["total"] >= 60
    assert report["disagreements"] == []
    assert set(report["per_kind_accuracy"]) == {"math", "mcq", "tool"}
    assert all(v == 1.0 for v in report["per_kind_accuracy"].values())


@pytest.mark.parametrize("line,message", [
    ('["math", "\\\\boxed{4}", "4", 1]', "bad fixture (not an object)"),
    ('{"kind": "math", "response": "\\\\boxed{4}", "truth": {"value": "4"}, "expected_reward": 1}',
     "math truth: expected a string"),
    ('{"kind": "mcq", "response": "B", "truth": "B", "expected_reward": 1}', "mcq truth: expected an object"),
    ('{"kind": "math", "response": 5, "truth": "4", "expected_reward": 1}', "response must be a string, got 5"),
    ('{"kind": [], "response": "4", "truth": "4", "expected_reward": 1}', "unknown verifier kind []"),
    ('{"kind": "math", "response": "4", "truth": "4"}', "bad fixture ('expected_reward')"),
    ('{"kind": "math",', "bad fixture (Expecting property name"),
], ids=["list-line", "math-object-truth", "mcq-string-truth", "int-response", "list-kind", "no-expected-reward",
        "bad-json"])
def test_exit_3_on_malformed_verifier_fixture(workdir, capsys, line, message):
    good = '{"kind": "math", "response": "\\\\boxed{4}", "truth": "4", "expected_reward": 1}'
    (workdir / "fix.jsonl").write_text(good + "\n" + line + "\n", encoding="utf-8")
    p = write_json(workdir / "v.json", {"fixtures": "fix.jsonl", "report": "verify.json"})
    assert run("verify", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and "fix.jsonl:2:" in err and message in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command,cfg,dataset,record,message", [
    ("pack", {"tokenizer": "tok.json", "dataset": "sft.jsonl", "max_len": 64}, "sft.jsonl",
     {"messages": [{"role": "user", "content": 5}, {"role": "assistant", "content": "4"}]},
     "message content must be a string, got 5"),
    ("train-dpo", DPO_BASE, "pairs.jsonl",
     {"prompt": [{"role": "user", "content": None}], "chosen": [{"role": "assistant", "content": "4"}],
      "rejected": [{"role": "assistant", "content": "5"}]},
     "message content must be a string, got None"),
    ("train-grpo", {**GRPO_BASE, "group_size": 2, "max_tokens": 4}, "rl.jsonl",
     {"prompt": [{"role": "user", "content": "2+2=?", "tool_calls": "zz"}], "verifier": "math", "truth": "4"},
     "tool_calls must be null or a list of objects, got 'zz'"),
], ids=["pack-int-content", "dpo-null-content", "grpo-string-tool-calls"])
def test_exit_3_on_chat_message_of_the_wrong_type(workdir, capsys, command, cfg, dataset, record, message):
    write_json(workdir / dataset, record)
    assert run(command, write_json(workdir / "c.json", cfg), environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error:") and f"{dataset}:1:" in err and message in err, err
    assert err.count("\n") == 1, err


def make_eval_suite(dirpath):
    """Two-task suite over byte-token arithmetic prompts."""
    enc = TOK.encode
    ll_items = [
        {"context": enc("2+2="), "choices": [enc("4"), enc("5"), enc("6")], "gold": 0},
        {"context": enc("3+4="), "choices": [enc("7"), enc("8"), enc("9")], "gold": 0},
        {"context": enc("5-2="), "choices": [enc("3"), enc("2"), enc("1")], "gold": 0},
    ]
    gen_items = [
        {"context": enc("1+1="), "gold": enc("2")},
        {"context": enc("9-3="), "gold": enc("6")},
    ]
    with open(dirpath / "ll.jsonl", "w", encoding="utf-8") as f:
        for it in ll_items:
            f.write(json.dumps(it) + "\n")
    with open(dirpath / "gen.jsonl", "w", encoding="utf-8") as f:
        for it in gen_items:
            f.write(json.dumps(it) + "\n")
    manifest = {
        "tasks": [
            {"name": "arith_ll", "file": "ll.jsonl", "mode": "loglikelihood",
             "metric": "accuracy", "baseline": 0.333},
            {"name": "arith_gen", "file": "gen.jsonl", "mode": "generate",
             "metric": "exact_match", "max_new": 2},
        ]
    }
    write_json(dirpath / "suite.json", manifest)


def test_eval_writes_report_and_monitor(workdir):
    make_eval_suite(workdir)
    p = write_json(
        workdir / "e.json",
        {"checkpoint": "base.ckpt", "suite": "suite.json", "step": 7,
         "report": "report.json", "monitor_csv": "monitor.csv"},
    )
    assert run("eval", p, environ={}) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["step"] == 7
    assert [t["name"] for t in report["tasks"]] == ["arith_ll", "arith_gen"]
    for t in report["tasks"]:
        assert 0.0 <= t["raw"] <= 1.0
    monitor = (workdir / "monitor.csv").read_text().strip().splitlines()
    assert monitor[0] == "step,arith_ll,arith_gen,average"
    assert monitor[1].startswith("7,")


@pytest.mark.parametrize("field,value", [("max_new", "x"), ("baseline", "x"), ("stop", 5)])
def test_exit_3_on_mistyped_suite_field(workdir, capsys, field, value):
    make_eval_suite(workdir)
    suite = json.loads((workdir / "suite.json").read_text())
    suite["tasks"][1][field] = value
    write_json(workdir / "suite.json", suite)
    p = write_json(workdir / "e.json", EVAL_BASE)
    assert run("eval", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: suite: ") and err.count("\n") == 1, err
    assert "suite.json: task 'arith_gen': " + field in err, err


def test_eval_monitor_csv_for_other_tasks_is_data_error(workdir, capsys):
    make_eval_suite(workdir)
    p = write_json(workdir / "e.json", {**EVAL_BASE, "monitor_csv": "monitor.csv"})
    assert run("eval", p, environ={}) == 0
    suite = json.loads((workdir / "suite.json").read_text())
    suite["tasks"][0]["name"] = "renamed"
    write_json(workdir / "suite.json", suite)
    capsys.readouterr()
    assert run("eval", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: monitoring CSV header") and err.count("\n") == 1


@pytest.mark.parametrize("where,bad", [
    ("choice", [TOK.vocab_size]),  # a 1-token choice is scored without a model run
    ("choice", [5, TOK.vocab_size]),  # a choice's last token is only a target
    ("choice", [-1]),
    ("exemplar", [5, TOK.vocab_size]),  # in the block prefilled once per task
])
def test_exit_3_on_out_of_range_token_id_in_eval_item(workdir, capsys, where, bad):
    enc = TOK.encode
    items = [{"context": enc(f"{k}+1="), "choices": [enc(str(k + 1)), enc("0")], "gold": 0}
             for k in range(6)]
    if where == "choice":
        items[5]["choices"][1] = bad
    else:
        items[2]["context"] = enc("2") + bad
    (workdir / "ll.jsonl").write_text("".join(json.dumps(it) + "\n" for it in items), encoding="utf-8")
    write_json(workdir / "suite.json", {"tasks": [
        {"name": "arith_ll", "file": "ll.jsonl", "mode": "loglikelihood", "metric": "accuracy", "n_shot": 5},
    ]})
    p = write_json(workdir / "e.json", EVAL_BASE)
    assert run("eval", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: token id") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("where,bad", [
    ("context", [1.5, 2]),  # once scored as ids 1 and 2
    ("choice", [True]),  # once scored as id 1
    ("exemplar", [2.0]),
])
def test_exit_3_on_non_integer_token_id_in_eval_item(workdir, capsys, where, bad):
    enc = TOK.encode
    items = [{"context": enc(f"{k}+1="), "choices": [enc(str(k + 1)), enc("0")], "gold": 0}
             for k in range(6)]
    if where == "choice":
        items[5]["choices"][1] = bad
    else:
        items[5 if where == "context" else 2]["context"] = bad
    (workdir / "ll.jsonl").write_text("".join(json.dumps(it) + "\n" for it in items), encoding="utf-8")
    write_json(workdir / "suite.json", {"tasks": [
        {"name": "arith_ll", "file": "ll.jsonl", "mode": "loglikelihood", "metric": "accuracy", "n_shot": 5},
    ]})
    p = write_json(workdir / "e.json", EVAL_BASE)
    assert run("eval", p, environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith("forge: data-error: token ids must be integers") and err.count("\n") == 1, err


BOOL_IDS = "token ids must be integers, got bool values"


@pytest.mark.parametrize("mode,where,message", [
    ("loglikelihood", "context", BOOL_IDS),
    ("loglikelihood", "choice", BOOL_IDS),
    ("loglikelihood", "gold", "suite: task 't' item 1: gold must index into choices"),
    ("generate", "context", BOOL_IDS),
    ("generate", "gold", "suite: task 't' item 1: generate items need a gold token list of ints"),
], ids=["ll-context", "ll-choice", "ll-gold-index", "gen-context", "gen-gold"])
def test_exit_3_on_json_boolean_in_eval_item(workdir, capsys, mode, where, message):
    """numpy casts [5, true] to ids [5, 1], and true is an int index in Python."""
    enc = TOK.encode
    items = [{"context": enc(f"{k}+1="), "choices": [enc(str(k + 1)), enc("0")], "gold": 1}
             for k in range(2)]
    if mode == "generate":
        items = [{"context": it["context"], "gold": enc("2")} for it in items]
    item = items[1]
    if where == "gold":
        item["gold"] = True if mode == "loglikelihood" else [5, True]
    elif where == "choice":
        item["choices"][0] = item["choices"][0] + [True]
    else:
        item["context"] = item["context"] + [True]
    (workdir / "t.jsonl").write_text("".join(json.dumps(it) + "\n" for it in items), encoding="utf-8")
    write_json(workdir / "suite.json", {"tasks": [
        {"name": "t", "file": "t.jsonl", "mode": mode, "metric": "accuracy" if mode == "loglikelihood"
         else "exact_match", "max_new": 2},
    ]})
    assert run("eval", write_json(workdir / "e.json", EVAL_BASE), environ={}) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"forge: data-error: {message}") and err.count("\n") == 1, err


# every leaf has a kind


def schema_leaves(schema, at=()):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from schema_leaves(spec, at + (key,))
        else:
            yield at + (key,), spec


def test_every_schema_default_passes_its_own_kind():
    for command, schema in SCHEMAS.items():
        for leaf, (default, kind) in schema_leaves(schema):
            assert default is REQUIRED or kind.ok(default), (command, leaf, default, kind.expected)


PROPERTY_CONFIGS = {
    "upscale": {"checkpoint": "base.ckpt", "m": 0},
    "merge": {"checkpoints": ["base.ckpt", "base.ckpt"], "weights": [0.5, 0.5]},
    "train-sft": sft_config(steps=1),
    "train-dpo": {**DPO_BASE, "accum": 1},
    "train-grpo": {**GRPO_BASE, "accum": 1, "group_size": 2, "max_tokens": 4},
    "eval": EVAL_BASE,
    "tokstats": {"tokenizer": "tok.json", "texts": ["sample.txt"]},
    "scrub": {"inputs": ["sample.txt"]},
    "pack": {"tokenizer": "tok.json", "dataset": "sft.jsonl", "max_len": 64},
    "verify": {"fixtures": "golden.jsonl"},
}
LEAVES = [(command, leaf, kind) for command in sorted(SCHEMAS) for leaf, (_, kind) in schema_leaves(SCHEMAS[command])]
# Numbers stay in [-2, 3] so that valid draws make small, fast runs.
SCALARS = st.none() | st.booleans() | st.text(max_size=6) | st.integers(-2, 3) | st.floats(-2, 3)
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.dictionaries(st.text(max_size=3), SCALARS, max_size=3)


@pytest.fixture(scope="module")
def property_workspace(tmp_path_factory):
    ws = populate(tmp_path_factory.mktemp("property"))
    make_eval_suite(ws)
    shutil.copy(FIX / "verifier_golden.jsonl", ws / "golden.jsonl")
    (ws / "sample.txt").write_text("ala ma kota, a@b.pl\n", encoding="utf-8")
    for command, cfg in PROPERTY_CONFIGS.items():
        write_json(ws / f"{command}.json", cfg)
    return ws


@settings(max_examples=300, deadline=None)
@given(pick=st.sampled_from(LEAVES), value=JSON_VALUES)
def test_any_leaf_value_exits_with_a_code_and_one_line(property_workspace, pick, value):
    command, leaf, kind = pick
    env = {"FORGE_" + "__".join(leaf).upper(): json.dumps(value)}
    err = io.StringIO()
    with tempfile.TemporaryDirectory(dir=property_workspace) as out, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(command, property_workspace / f"{command}.json", out_dir=out, environ=env)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().startswith("forge: ") and err.getvalue().count("\n") == 1, err.getvalue()
    if not kind.ok(value):
        assert code == 2 and err.getvalue().startswith(f"forge: config-error: {'.'.join(leaf)}:")


# full pipeline determinism


def run_pipeline(workdir, root):
    """upscale -> sft -> merge(sft, upscaled) -> eval in a self-contained
    workspace; every path in every config is relative, so two workspaces
    hold byte-identical configs (hence identical manifest hashes)."""
    root.mkdir()
    for name in ("base.ckpt", "tok.json", "sft.jsonl"):
        shutil.copy(workdir / name, root / name)
    make_eval_suite(root)

    write_json(root / "up.json", {"checkpoint": "base.ckpt", "m": 0, "output": "up.ckpt"})
    assert run("upscale", root / "up.json", environ={}) == 0

    write_json(
        root / "sft.json",
        {"checkpoint": "up.ckpt", "tokenizer": "tok.json", "dataset": "sft.jsonl",
         "steps": 4, "accum": 1, "max_len": 96, "log": "sft.csv", "seed": 11,
         "schedule": {"peak_lr": 5e-3, "warmup_steps": 1}},
    )
    assert run("train-sft", root / "sft.json", environ={}) == 0

    write_json(
        root / "merge.json",
        {"checkpoints": ["model.ckpt", "up.ckpt"], "weights": [0.7, 0.3],
         "output": "merged.ckpt"},
    )
    assert run("merge", root / "merge.json", environ={}) == 0

    write_json(
        root / "eval.json",
        {"checkpoint": "merged.ckpt", "suite": "suite.json",
         "report": "report.json", "monitor_csv": "monitor.csv"},
    )
    assert run("eval", root / "eval.json", environ={}) == 0


def test_pipeline_rerun_byte_identical(workdir):
    run_pipeline(workdir, workdir / "a")
    run_pipeline(workdir, workdir / "b")
    names = [
        "up.ckpt", "model.ckpt", "sft.csv", "merged.ckpt", "report.json", "monitor.csv",
        "upscale_manifest.json", "train_sft_manifest.json", "merge_manifest.json",
        "eval_manifest.json",
    ]
    for name in names:
        a = (workdir / "a" / name).read_bytes()
        b = (workdir / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_dpo_cli_smoke(workdir):
    p = write_json(
        workdir / "d.json",
        {"checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "pairs.jsonl",
         "steps": 2, "accum": 2, "variant": "dpop", "log": "dpo.csv",
         "schedule": {"peak_lr": 1e-3, "warmup_steps": 0}},
    )
    assert run("train-dpo", p, out_dir=workdir / "dpo", environ={}) == 0
    lines = (workdir / "dpo" / "dpo.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    load_checkpoint(workdir / "dpo" / "model.ckpt")


def test_grpo_cli_smoke(workdir):
    p = write_json(
        workdir / "g.json",
        {"checkpoint": "base.ckpt", "tokenizer": "tok.json", "dataset": "rl.jsonl",
         "steps": 2, "accum": 1, "group_size": 2, "max_tokens": 4,
         "temperature": 0.7, "log": "grpo.csv", "seed": 3,
         "schedule": {"peak_lr": 1e-3, "warmup_steps": 0}},
    )
    assert run("train-grpo", p, out_dir=workdir / "grpo", environ={}) == 0
    lines = (workdir / "grpo" / "grpo.csv").read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm,mean_reward,mean_kl"
    assert len(lines) == 3


def test_module_entry_point_exit_codes(workdir):
    import os

    env = {k: v for k, v in os.environ.items() if not k.startswith("FORGE_")}
    p = write_json(workdir / "up.json", {"checkpoint": "base.ckpt", "m": 0})
    good = subprocess.run(
        [sys.executable, "-m", "forge.cli", "upscale", "--config", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert good.returncode == 0, good.stderr

    bad = write_json(workdir / "bad.json", {"checkpoint": "absent.ckpt", "m": 0})
    r = subprocess.run(
        [sys.executable, "-m", "forge.cli", "upscale", "--config", str(bad)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("forge: config-error:")


def test_seed_flag_lands_in_manifest(workdir):
    p = write_json(workdir / "up.json", {"checkpoint": "base.ckpt", "m": 0, "seed": 1})
    assert run("upscale", p, out_dir=workdir / "o", seed=42, environ={}) == 0
    manifest = json.loads((workdir / "o" / "upscale_manifest.json").read_text())
    assert manifest["seed"] == 42
