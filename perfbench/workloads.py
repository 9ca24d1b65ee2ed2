"""The four workloads: set-up, one closed-loop iteration, and its gate.

One iteration runs the CLI stage(s) a user would run on the workspace,
writing into ``out/``; the gate then checks that iteration's outputs. A
workload also says what its unit of work is (an optimizer step, an eval
item, a corpus pass) and how much work an iteration did, read from the
step-boundary spans (``spans.STEP_HOOKS``) recorded while it ran.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import generate
from forge import cli
from forge.datapipe.chat import build_loss_mask, load_chat_dataset, render_chat
from forge.datapipe.scrub import scrub
from forge.datapipe.tokenizer import load_tokenizer


@dataclass
class Iteration:
    index: int
    wall: float  # seconds inside forge.cli.run calls
    codes: list
    spans: list
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def named(self, name):
        return [s for s in self.spans if s.name == name]


def digest_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def csv_column(path: Path, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as f:
        return [float(row[column]) for row in csv.DictReader(f)]


class Workload:
    name = ""
    stages: tuple = ()  # (command, config file) run in order each iteration
    op = ""  # unit of work the per-op figures are counted in
    timed_op = ""  # what the latency percentiles are taken over, when not every op
    rate = ("", "")  # (name, unit) of the headline throughput
    latency = ("", "ms")  # (name stem, unit) of the per-op latency figures

    def setup(self, ws: Path, seed: int) -> None:
        self.expect = generate.WRITERS[self.name](ws, seed)

    def run(self, ws: Path, out: Path) -> tuple[float, list]:
        wall, codes = 0.0, []
        for command, config in self.stages:
            t0 = perf_counter()
            codes.append(cli.run(command, ws / config, out_dir=out, environ={}))
            wall += perf_counter() - t0
        return wall, codes

    def check(self, ws: Path, out: Path, it: Iteration, ref: Iteration | None) -> list[str]:
        failures = [f"{cmd} exited {code}" for (cmd, _), code in zip(self.stages, it.codes) if code != 0]
        if failures:
            return failures
        it.digests = digest_tree(out)
        failures += self.check_outputs(ws, out, it, ref)
        if ref is not None and it.digests != ref.digests:
            differ = sorted(k for k in set(it.digests) | set(ref.digests)
                            if it.digests.get(k) != ref.digests.get(k))
            failures.append(f"outputs differ from iteration {ref.index}: {differ}")
        return failures

    def check_outputs(self, ws, out, it, ref) -> list[str]:
        return []

    def op_seconds(self, it: Iteration) -> list[float]:
        return [it.wall]

    def n_ops(self, it: Iteration) -> int:
        return len(self.op_seconds(it))

    def work(self, it: Iteration) -> float:
        raise NotImplementedError

    def extra(self, its: list) -> dict:
        """Further end-to-end figures for the report: name -> (value, unit, note)."""
        return {}

    def corrupt(self, out: Path) -> str:
        """Damage one output in place (self-test); returns its name."""
        raise NotImplementedError


def _flip_byte(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def _step_seconds(it: Iteration) -> list[float]:
    starts = [s.t0 for s in it.named("train.lr_at")]
    ends = [s.t1 for s in it.named("train.adamw_step")]
    return [b - a for a, b in zip(starts, ends)]


class SftDesk(Workload):
    name = "sft-desk"
    stages = (("train-sft", "sft.json"),)
    op = "step"
    rate = ("train_tokens_per_s", "tokens/s")
    latency = ("train_step_ms", "ms")

    def check_outputs(self, ws, out, it, ref):
        losses = csv_column(out / "sft.csv", "loss")
        failures = []
        if len(losses) != self.expect["steps"] or len(_step_seconds(it)) != self.expect["steps"]:
            failures.append(f"expected {self.expect['steps']} steps, log has {len(losses)}")
        elif not losses[-1] < losses[0]:
            failures.append(f"loss did not fall: {losses[0]:.6f} -> {losses[-1]:.6f}")
        return failures

    op_seconds = staticmethod(_step_seconds)

    def work(self, it):
        return sum(s.fact for s in it.named("train.sft_batch_loss"))

    def corrupt(self, out):
        _flip_byte(out / "sft.ckpt", -1)
        return "sft.ckpt"


class GrpoToy(Workload):
    name = "grpo-toy"
    stages = (("train-grpo", "grpo.json"),)
    op = "step"
    rate = ("rollout_tokens_per_s", "tokens/s")
    latency = ("grpo_step_s", "s")

    def check_outputs(self, ws, out, it, ref):
        rewards = [s.fact for s in it.named("verifiers.verify")]
        want = self.expect["steps"] * self.expect["group_size"]
        failures = []
        if len(rewards) != want:
            failures.append(f"{len(rewards)} rewards, expected {want}")
        bad = sorted({r for r in rewards if r not in (0.0, 1.0)})
        if bad:
            failures.append(f"rewards outside {{0, 1}}: {bad}")
        if len(csv_column(out / "grpo.csv", "loss")) != self.expect["steps"]:
            failures.append("step log has the wrong number of rows")
        return failures

    op_seconds = staticmethod(_step_seconds)

    def work(self, it):
        return sum(s.fact[0] for s in it.named("train.sample_response"))

    def corrupt(self, out):
        path = out / "grpo.csv"
        path.write_text(path.read_text(encoding="utf-8").replace("0", "1", 1), encoding="utf-8")
        return "grpo.csv"


class EvalDesk(Workload):
    name = "eval-desk"
    stages = (("eval", "eval.json"),)
    op = "item"
    timed_op = "choice item"
    rate = ("eval_items_per_s", "items/s")
    latency = ("eval_choice_ms", "ms")

    def _items(self, it):
        return [s for s in it.spans if s.name in (
            "evalharness.loglikelihood_choice", "evalharness.generate_greedy")]

    def check_outputs(self, ws, out, it, ref):
        failures = []
        report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
        if [t["name"] for t in report["tasks"]] != ["choice", "continue"]:
            failures.append("report does not list the suite's two tasks")
        if len(self._items(it)) != self.expect["items"]:
            failures.append(f"scored {len(self._items(it))} items, expected {self.expect['items']}")
        greedy = [s.fact for s in it.named("evalharness.generate_greedy")]
        if ref is not None and greedy != [s.fact for s in ref.named("evalharness.generate_greedy")]:
            failures.append("greedy outputs differ between iterations")
        return failures

    def op_seconds(self, it):
        # one kind of item only: a generate item takes several times as long
        # as a choice item, and mixing them would make the tail depend on how
        # many iterations fit in a run (generation shows in decode_tokens_per_s)
        return [s.dur for s in it.named("evalharness.loglikelihood_choice")]

    def n_ops(self, it):
        return len(self._items(it))

    work = n_ops

    def extra(self, its):
        gens = [s for it in its for s in it.named("evalharness.generate_greedy")]
        tokens = sum(len(s.fact) for s in gens)
        secs = sum(s.dur for s in gens)
        return {"decode_tokens_per_s": (tokens / secs, "tokens/s",
                                        f"{tokens} greedy tokens over {len(gens)} generate items")}

    def corrupt(self, out):
        path = out / "eval_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["average"] += 1e-9
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return "eval_report.json"


def _read_tsv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f, delimiter="\t"))


class CorpusPrep(Workload):
    name = "corpus-prep"
    stages = (("scrub", "scrub.json"), ("tokstats", "tokstats.json"), ("pack", "pack.json"))
    op = "pass"
    rate = ("prep_chars_per_s", "chars/s")
    latency = ("prep_pass_ms", "ms")

    def check_outputs(self, ws, out, it, ref):
        failures = []
        found: dict = {}
        for row in _read_tsv(out / "scrub_report.tsv"):
            found.setdefault(row["file"], {})[row["category"]] = int(row["count"])
        if found != self.expect["planted"]:
            failures.append(f"scrub counts {found} != planted {self.expect['planted']}")
        for name in sorted(self.expect["planted"]):
            text = (out / "scrubbed" / name).read_text(encoding="utf-8")
            again, report = scrub(text)
            if again != text or report.counts:
                failures.append(f"scrub is not idempotent on {name}: {report.counts}")
        if ref is None:  # later iterations are held to this one byte for byte
            failures += self._check_tokens(ws, out) + self._check_packing(ws, out)
        return failures

    def _check_tokens(self, ws, out) -> list[str]:
        tok = load_tokenizer(ws / "tok.json")
        failures = []
        rows = {Path(r["file"]).name: r for r in _read_tsv(out / "tokstats.tsv")}
        for name in sorted(self.expect["planted"]):
            text = (out / "scrubbed" / name).read_text(encoding="utf-8")
            ids = tok.encode(text)
            if tok.decode(ids) != text:
                failures.append(f"decode(encode(x)) != x for {name}")
            if int(rows[name]["tokens"]) != len(ids) or int(rows[name]["chars"]) != len(text):
                failures.append(f"tokstats row for {name} disagrees with the tokenizer")
        return failures

    def _check_packing(self, ws, out) -> list[str]:
        tok = load_tokenizer(ws / "tok.json")
        samples = []
        for sample in load_chat_dataset(ws / "chat.jsonl"):
            rendered = render_chat(sample, tok)
            samples.append((rendered.token_ids.tolist(), build_loss_mask(rendered).astype(int).tolist()))
        unpacked = []
        for line in (out / "packed.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if len(row["token_ids"]) > self.expect["max_len"]:
                return ["packed row longer than max_len"]
            for seg in sorted(set(row["segment_ids"])):
                at = [i for i, s in enumerate(row["segment_ids"]) if s == seg]
                if [row["positions"][i] for i in at] != list(range(len(at))):
                    return ["positions do not restart at 0 in every segment"]
                unpacked.append(([row["token_ids"][i] for i in at], [row["loss_mask"][i] for i in at]))
        return [] if unpacked == samples else ["packed rows do not reproduce the input samples"]

    def work(self, it):
        return self.expect["chars"]

    def corrupt(self, out):
        path = out / "scrubbed" / "doc0.txt"
        path.write_text(path.read_text(encoding="utf-8") + "kontakt jan@example.pl\n", encoding="utf-8")
        return "scrubbed/doc0.txt"


WORKLOADS = {w.name: w for w in (SftDesk, GrpoToy, EvalDesk, CorpusPrep)}
