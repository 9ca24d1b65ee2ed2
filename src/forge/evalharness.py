"""Evaluation harness: choice scoring, greedy decoding, task metrics,
baseline normalization, and checkpoint-monitoring reports.

A task file is line-delimited JSON items; task metadata (mode, metric,
shots, baseline) lives in a suite manifest so the same item file can be
run under different settings. Few-shot exemplars are the first n_shot
items of the file, in file order, and are never scored themselves.

Scores are raw summed log-probs per choice (no per-byte length
normalization); baselines default to 1/num_choices for choice tasks and
0 for generative ones since published normalization constants vary.

Choice scoring reuses cached prefixes (``forge.decode``): a task prefills
its exemplar block once, each item extends a copy of that cache by its own
context, and each bucket of equal-length choices is one batched
``extend``. The scores agree with teacher forcing each choice through
``forward`` (``sequence_logprobs``, the tests' reference) to float
rounding, not bitwise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .datapipe.records import read_records
from .decode import KVCache, bucket_logits, decode, extend, prefill
from .model import Checkpoint, check_token_ids, forward

MODES = ("loglikelihood", "generate")
METRICS = ("accuracy", "f1_binary", "f1_macro", "levenshtein", "exact_match")


@dataclass(frozen=True)
class Task:
    name: str
    items: tuple
    mode: str
    metric: str
    n_shot: int = 0
    baseline: float = 0.0
    max_new: int = 32
    stop: tuple = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.n_shot not in (0, 5):
            raise ValueError(f"n_shot must be 0 or 5, got {self.n_shot}")
        if self.baseline >= 1:
            raise ValueError(f"baseline must be < 1, got {self.baseline}")
        if self.max_new < 1:
            raise ValueError("max_new must be >= 1")
        if len(self.items) <= self.n_shot:
            raise ValueError(
                f"task {self.name!r} has {len(self.items)} items but needs more "
                f"than {self.n_shot} so exemplars stay disjoint from scored items"
            )
        for k, item in enumerate(self.items):
            self._check_item(k, item)

    def _check_item(self, k, item):
        where = f"task {self.name!r} item {k}"
        if not isinstance(item.get("context"), list) or not item["context"]:
            raise ValueError(f"{where}: context must be a non-empty token list")
        gold = item.get("gold")
        if self.mode == "loglikelihood":
            choices = item.get("choices")
            if not isinstance(choices, list) or len(choices) < 2:
                raise ValueError(f"{where}: loglikelihood items need >= 2 choices")
            if not _is_int(gold) or not (0 <= gold < len(choices)):
                raise ValueError(f"{where}: gold must index into choices")
        elif not isinstance(gold, list) or not all(map(_is_int, gold)):
            raise ValueError(f"{where}: generate items need a gold token list of ints")

    def exemplars(self):
        return self.items[: self.n_shot]

    def scored_items(self):
        return self.items[self.n_shot :]


@dataclass(frozen=True)
class TaskScore:
    name: str
    mode: str
    metric: str
    n_shot: int
    raw: float
    normalized: float


@dataclass(frozen=True)
class EvalReport:
    step: int
    scores: tuple
    average: float

    def to_json(self) -> str:
        payload = {
            "step": self.step,
            "average": self.average,
            "tasks": [
                {
                    "name": s.name,
                    "mode": s.mode,
                    "metric": s.metric,
                    "n_shot": s.n_shot,
                    "raw": s.raw,
                    "normalized": s.normalized,
                }
                for s in self.scores
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sequence_logprobs(ckpt: Checkpoint, tokens) -> np.ndarray:
    """Log-prob of tokens[i] given tokens[:i], for i >= 1; length T-1."""
    tokens = check_token_ids(tokens, ckpt.config.vocab_size)
    if len(tokens) < 2:
        raise ValueError("need at least two tokens to score a continuation")
    return _row_logprobs(forward(ckpt, tokens[:-1]), tokens[1:])


def loglikelihood_choice(ckpt: Checkpoint, context, choices, prefix=None):
    """(winning index, per-choice summed log-probs); teacher-forced scoring
    of each choice behind the shared context, ties going to the lowest index.

    ``prefix`` is ``(tokens, cache)`` for tokens that start ``context`` and
    their ``decode.prefill`` cache, e.g. a task's exemplar block; a copy of
    it is extended by the rest of the context. ``decode.bucket_logits`` runs
    the choices behind the context's cache, and each bucket's choice tokens
    go through ``target_logprobs`` as in ``sequence_logprobs``. Scores agree
    with a ``forward`` per choice to float rounding, not bitwise: a cached
    run multiplies fewer rows at a time."""
    if len(choices) < 2:
        raise ValueError("need at least two choices")
    if not len(context):
        raise ValueError("context is empty; choices need a conditioning prefix")
    vocab = ckpt.config.vocab_size
    context = check_token_ids(context, vocab)
    choices = [check_token_ids(c, vocab) for c in choices]
    for k, choice in enumerate(choices):
        if not len(choice):
            raise ValueError(f"choice {k} is empty")
    cache, keep = KVCache(keys=[], values=[]), 0
    if prefix is not None:
        head, cached = prefix
        head = np.asarray(head, dtype=np.int64)
        if len(head) > len(context) or not np.array_equal(head, context[: len(head)]):
            raise ValueError("prefix tokens do not start the context")
        keep = len(head) - (len(head) == len(context))  # the last context row needs its logits
        cache = cached.trim(keep)
    last = extend(ckpt, context[None, keep:], cache)[0, -1:]
    firsts = _row_logprobs(np.repeat(last, len(choices), axis=0), [c[0] for c in choices])
    scores = firsts.astype(np.float64)  # a 1-token choice needs no run
    for bucket, logits in bucket_logits(ckpt, [c[:-1] for c in choices], cache):
        targets = np.stack([choices[k][1:] for k in bucket]).reshape(-1)
        rest = _row_logprobs(logits.reshape(-1, vocab), targets).reshape(len(bucket), -1)
        for k, row in zip(bucket, rest):
            scores[k] = np.concatenate([firsts[k : k + 1], row]).sum()
    return int(np.argmax(scores)), scores


def _row_logprobs(logits: np.ndarray, targets) -> np.ndarray:
    """log p(targets[i]) under logits row i: the one per-row reducer, for
    ``loglikelihood_choice`` and ``sequence_logprobs`` alike."""
    return T.sum_(T.target_logprobs(logits, targets), axis=-1).numpy()


def generate_greedy(ckpt: Checkpoint, context, max_new: int, stop=()) -> list[int]:
    """Greedy continuation of context; halts on a stop token (excluded from
    the output) or after max_new tokens."""
    if max_new < 1:
        raise ValueError("max_new must be >= 1")
    if not len(context):
        raise ValueError("context is empty")
    stop = set(int(s) for s in stop)
    out = decode(ckpt, prefill(ckpt, context), 1, max_new, lambda logits, live, n: logits.argmax(axis=-1), stop)[0]
    if out and out[-1] in stop:
        out.pop()
    return out


def levenshtein(a, b) -> int:
    """Edit distance over any two sequences (insert/delete/substitute)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _f1_for_class(predictions, golds, positive) -> float:
    tp = sum(1 for p, g in zip(predictions, golds) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(predictions, golds) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(predictions, golds) if p != positive and g == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def metric_eval(metric: str, predictions, golds) -> float:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to score")
    if metric in ("accuracy", "exact_match"):
        return sum(1 for p, g in zip(predictions, golds) if p == g) / len(golds)
    if metric == "f1_binary":
        return _f1_for_class(predictions, golds, positive=1)
    if metric == "f1_macro":
        classes = sorted(set(golds), key=repr)
        return sum(_f1_for_class(predictions, golds, c) for c in classes) / len(classes)
    # levenshtein: per-item similarity, averaged
    total = 0.0
    for p, g in zip(predictions, golds):
        longest = max(len(p), len(g))
        total += 1.0 if longest == 0 else 1.0 - levenshtein(p, g) / longest
    return total / len(golds)


def normalize_score(raw: float, baseline: float) -> float:
    """(raw - baseline) / (1 - baseline); negative when below chance, unclipped."""
    if baseline >= 1:
        raise ValueError(f"baseline must be < 1, got {baseline}")
    return (raw - baseline) / (1.0 - baseline)


def _exemplar_tokens(task: Task, item) -> list[int]:
    gold = item["choices"][item["gold"]] if task.mode == "loglikelihood" else item["gold"]
    return list(item["context"]) + list(gold)


def exemplar_block(task: Task) -> list[int]:
    """The n_shot exemplars in file order, each context then gold."""
    return [t for ex in task.exemplars() for t in _exemplar_tokens(task, ex)]


def build_prompt(task: Task, item) -> list[int]:
    """Scored-item context behind exactly n_shot exemplars in file order."""
    return exemplar_block(task) + list(item["context"])


def run_task(ckpt: Checkpoint, task: Task) -> float:
    """The task's metric over its scored items. A loglikelihood task with
    exemplars prefills their block once and scores every item from it."""
    predictions, golds = [], []
    prefix = None
    if task.mode == "loglikelihood" and task.n_shot:
        head = exemplar_block(task)
        prefix = (head, prefill(ckpt, head)[1])
    for item in task.scored_items():
        prompt = build_prompt(task, item)
        if task.mode == "loglikelihood":
            idx, _ = loglikelihood_choice(ckpt, prompt, item["choices"], prefix)
            predictions.append(idx)
            golds.append(item["gold"])
        else:
            out = generate_greedy(ckpt, prompt, task.max_new, task.stop)
            predictions.append(tuple(out))
            golds.append(tuple(item["gold"]))
    return metric_eval(task.metric, predictions, golds)


def run_suite(ckpt: Checkpoint, tasks, step: int, csv_path=None) -> EvalReport:
    """Score every task, normalize against its baseline, average; optionally
    append one monitoring row (step, per-task normalized, average)."""
    if not tasks:
        raise ValueError("no tasks to run")
    scores = []
    for task in tasks:
        raw = run_task(ckpt, task)
        scores.append(
            TaskScore(
                name=task.name,
                mode=task.mode,
                metric=task.metric,
                n_shot=task.n_shot,
                raw=float(raw),
                normalized=float(normalize_score(raw, task.baseline)),
            )
        )
    average = float(np.mean([s.normalized for s in scores]))
    report = EvalReport(step=step, scores=tuple(scores), average=average)
    if csv_path is not None:
        append_monitoring_row(csv_path, report)
    return report


def append_monitoring_row(csv_path, report: EvalReport) -> None:
    header = ["step"] + [s.name for s in report.scores] + ["average"]
    path = Path(csv_path)
    exists = path.exists() and path.stat().st_size > 0
    if exists:
        with open(path, newline="", encoding="utf-8") as f:
            have = next(csv.reader(f))
        if have != header:
            raise ValueError(f"monitoring CSV header {have} does not match tasks {header}")
    with open(path, "a", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        if not exists:
            w.writerow(header)
        w.writerow([report.step] + [repr(s.normalized) for s in report.scores] + [repr(report.average)])


def load_task_items(path) -> tuple:
    return tuple(read_records(path, lambda item: item, "task item"))


def _is_int(v) -> bool:
    return type(v) is int  # a bool is an int subclass, not a count


_ENTRY_FIELDS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "file": ("a string", lambda v: isinstance(v, str)),
    "mode": ("a string", lambda v: isinstance(v, str)),
    "metric": ("a string", lambda v: isinstance(v, str)),
    "n_shot": ("an int", _is_int),
    "max_new": ("an int", _is_int),
    "baseline": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "stop": ("a list of ints", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def load_suite(manifest_path) -> list[Task]:
    """Tasks from a manifest {tasks: [{name, file, mode, metric, ...}]};
    item files resolve relative to the manifest."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    entries = manifest.get("tasks") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{manifest_path}: manifest needs a non-empty tasks list")
    tasks = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: task entry is not an object: {entry!r}")
        for key in ("name", "file", "mode", "metric"):
            if key not in entry:
                raise ValueError(f"{manifest_path}: task entry missing {key!r}")
        for key, (expected, ok) in _ENTRY_FIELDS.items():
            if key in entry and not ok(entry[key]):
                raise ValueError(
                    f"{manifest_path}: task {entry['name']!r}: {key} must be {expected}, got {entry[key]!r}"
                )
        items = load_task_items(manifest_path.parent / entry["file"])
        tasks.append(
            Task(
                name=entry["name"],
                items=items,
                mode=entry["mode"],
                metric=entry["metric"],
                n_shot=entry.get("n_shot", 0),
                baseline=entry.get("baseline", 0.0),
                max_new=entry.get("max_new", 32),
                stop=tuple(entry.get("stop", ())),
            )
        )
    return tasks
