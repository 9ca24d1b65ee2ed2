"""forge benchmark: four closed-loop workloads driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sft-desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --self-test

Workloads (each built from ``--seed`` by ``generate.py`` into a fresh
workspace, and run in its own process so peak memory is per workload):

- ``sft-desk``: ``train-sft`` at the desk shape (d_model 256, 4 layers,
  8 query / 4 KV heads of 32, vocab 2048, packed 256-token rows).
- ``grpo-toy``: ``train-grpo`` on the acceptance toy checkpoint (d_model 32,
  4 layers depth-upscaled to 6), group 8, temperature 0.7, 12-token budget.
- ``eval-desk``: ``eval`` on a desk-shape checkpoint: 5-shot 4-way choice
  scoring and 32-token greedy generation, both behind ~200-token contexts.
- ``corpus-prep``: ``scrub``, ``tokstats`` and ``pack`` over prose with
  planted personal data and a chat set, with a 300-merge BPE tokenizer.

The loop is closed with one caller: the next stage run starts when the
previous one returns, so time spent waiting for the program is zero by
construction and is not reported. A run repeats the workload's stage(s)
until ``--seconds`` of stage time have passed (at least twice), then the
gate checks every iteration's outputs. Set-up is timed in samples spread
over the measured run, so that it meets the same host as the stages do. With ``--trace 0`` only step and
item boundaries are recorded (``spans.STEP_HOOKS``); ``--trace 1`` runs
half the time untraced, then the same number of iterations with every
public function wrapped (``spans.LAYER_HOOKS``), and reports per-layer
figures, the tracing overhead and the layer probe.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (workload iterations and set-ups, each
counted failed when any gate check on it fails) and ``metrics``, the
end-to-end metrics under the names ``BENCHMARK.json`` lists (the same
four for every workload) or, traced, every per-layer metric. The lines
before it give each figure under its workload's own name, with unit and
sample count. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import os

# Fix the BLAS pool before numpy loads: one thread keeps run-to-run spread
# low on a shared machine and is recorded in the machine block.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sft-desk", "grpo-toy", "eval-desk", "corpus-prep")
SETUP_SAMPLES = 7  # set-up time is the median of this many samples
SETUP_SAMPLE_S = 0.2  # a sample repeats a quick set-up until it has taken this long
MIN_ITERATIONS = 2  # the gate compares iterations with each other


def import_forge() -> None:
    """Put the checkout's own ``src`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "forge" / "__init__.py").is_file():
        print(f"perfbench: no forge sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import forge

    if Path(forge.__file__).resolve().parent != (src / "forge").resolve():
        print(f"perfbench: imported forge from {forge.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
    }


def tail(xs) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when that percentile would fall below
    the median (fewer than 21 samples)."""
    s = sorted(xs)
    if len(s) < 21:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def iterate(wl, ws, out, recorder, seconds, first, count=None, ref=None, after=None):
    """Closed loop: run the workload's stages until ``seconds`` of stage
    time have passed (or exactly ``count`` times), checking each iteration.
    ``after(busy)``, if given, runs between iterations, outside the timing."""
    from workloads import Iteration

    its, busy = [], 0.0
    while (count is None and (busy < seconds or len(its) < MIN_ITERATIONS)) or (
            count is not None and len(its) < count):
        shutil.rmtree(out, ignore_errors=True)
        # Each CLI stage normally runs in a fresh process; start every
        # iteration from a collected heap so the tape's reference cycles
        # from earlier iterations neither pile up nor get collected mid-step.
        gc.collect()
        recorder.iteration = first + len(its)
        i0 = len(recorder.spans)
        with recorder, contextlib.redirect_stdout(io.StringIO()):
            wall, codes = wl.run(ws, out)
        it = Iteration(recorder.iteration, wall, codes, recorder.spans[i0:])
        it.failures = wl.check(ws, out, it, ref)
        ref = ref or it
        its.append(it)
        busy += wall
        if it.failures:  # the run has failed; stop early
            break
        if after is not None:
            after(busy)
    return its


class SetUps:
    """Fresh workspaces from one seed; each must be byte-identical to the first."""

    def __init__(self, wl, work: Path, seed: int):
        self.wl, self.work, self.seed = wl, work, seed
        self.times: list[float] = []  # seconds per set-up, one per sample
        self.failures: list[str] = []
        self.count, self.first = 0, None

    def one(self, recorder=None) -> tuple[Path, float]:
        from workloads import digest_tree

        ws = self.work / f"ws{self.count}"
        ws.mkdir(parents=True)
        gc.collect()
        with recorder or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            self.wl.setup(ws, self.seed)
            took = perf_counter() - t0
        tree = digest_tree(ws)
        if self.first is None:
            self.first = tree
        elif tree != self.first:
            self.failures.append(f"set-up {self.count} differs from set-up 0 for the same seed")
        self.count += 1
        return ws, took

    def sample(self) -> None:
        """Set up afresh until SETUP_SAMPLE_S have passed; record the mean
        per set-up, so a set-up of a few ms is not timed alone."""
        took = []
        while sum(took) < SETUP_SAMPLE_S:
            ws, t = self.one()
            took.append(t)
            shutil.rmtree(ws)
        self.times.append(sum(took) / len(took))

    def spread_over(self, seconds: float):
        """``iterate``'s ``after``: one sample each time another
        1/SETUP_SAMPLES of the measured stage time has passed."""
        def after(busy):
            if len(self.times) < SETUP_SAMPLES and busy >= len(self.times) * seconds / SETUP_SAMPLES:
                self.sample()
        return after


def line(name, value, unit, note="") -> None:
    print(f"  {name:<34} {value:>14.6g} {unit:<10} {note}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, self_test: bool) -> int:
    from spans import LAYER_HOOKS, STEP_HOOKS, Recorder
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}")
        print("  closed loop, one caller: waiting time is zero by construction")
        print("  machine " + " ".join(f"{k}={v}" for k, v in machine().items()))
        rec = Recorder(LAYER_HOOKS if traced else STEP_HOOKS)
        setup = SetUps(wl, work, seed)
        # the workspace every iteration runs in; traced, its set-up is the one timed
        ws, took = setup.one(rec if traced else None)
        out = ws / "out"
        # one untimed iteration first: it warms caches and allocator, and is
        # the reference every later iteration must reproduce byte for byte
        warm = iterate(wl, ws, out, Recorder(STEP_HOOKS), 0, 0, count=1)
        if not traced:
            its = iterate(wl, ws, out, rec, seconds, 1, ref=warm[0], after=setup.spread_over(seconds))
            while len(setup.times) < SETUP_SAMPLES:  # fewer iterations than samples
                setup.sample()
            result = end_to_end(wl, warm, its, setup)
        else:
            setup.times.append(took)
            plain = iterate(wl, ws, out, Recorder(STEP_HOOKS), seconds / 2, 1, ref=warm[0])
            its = iterate(wl, ws, out, rec, 0, 1 + len(plain), count=len(plain), ref=warm[0])
            result = per_layer(wl, name, seed, rec, warm + plain, its, setup)
        if self_test:
            result["correct"] &= corrupted_output_rejected(wl, ws, out, its[-1], warm[0])
            result["correct"] &= names_match_spec(traced, result["metrics"])
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def gate(its, setup: SetUps) -> dict:
    """Operations are set-ups and iterations; one fails when any check on it does."""
    failed = sum(1 for it in its if it.failures) + len(setup.failures)
    attempted = len(its) + setup.count
    for msg in setup.failures:
        print(f"  FAIL set-up: {msg}")
    for it in its:
        for msg in it.failures:
            print(f"  FAIL iteration {it.index}: {msg}")
    print(f"  gate {'PASS' if failed == 0 else 'FAIL'}: {attempted - failed} of {attempted} "
          f"operations passed every check")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def end_to_end(wl, warm, its, setup: SetUps) -> dict:
    ops = [s for it in its for s in wl.op_seconds(it)] or [0.0]  # empty only when a stage failed
    wall = sum(it.wall for it in its)
    rate = sum(wl.work(it) for it in its) / wall
    p50 = statistics.median(ops)
    hi, pct = tail(ops)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = gate(warm + its, setup)
    name, unit = wl.latency
    scale = {"ms": 1e3, "s": 1.0}[unit]
    n = f"n={len(ops)}, one per {wl.timed_op or wl.op}"
    print("  end-to-end")
    line("setup_s", statistics.median(setup.times), "s",
         f"median of {len(setup.times)} samples over {setup.count} set-ups")
    line("peak_rss_mb", rss, "MB", "whole process")
    line("ops_failed_frac", result["failed"] / result["attempted"], "frac",
         f"{result['failed']} of {result['attempted']} operations")
    line(wl.rate[0], rate, wl.rate[1], f"{len(its)} stage runs, {wall:.3f} s stage time")
    line(f"{name}_p50", p50 * scale, unit, n)
    line(f"{name}_tail", hi * scale, unit, f"p{pct:.1f}, {n}")
    for key, (value, unit_, note) in wl.extra(its).items():
        line(key, value, unit_, note)
    # The p50 is printed above but not returned: on a shared 2-vCPU host,
    # ten grpo-toy runs gave it a spread (IQR / median) of 0.33, beyond the
    # largest bound (0.25) a returned metric may carry; throughput and the
    # tail, measured in the same runs, stayed within it.
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
        "throughput_per_s": {"value": rate, "unit": "1/s"},
        "op_ms_tail": {"value": hi * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return result


def per_layer(wl, name, seed, rec, untraced, its, setup: SetUps) -> dict:
    """untraced: the warm-up iteration, then as many untraced iterations as
    ``its`` holds traced ones; the overhead compares those two sets."""
    import layers
    from probe import probe_for

    plain = untraced[1:]
    wall = setup.times[0] + sum(it.wall for it in its)
    overhead = sum(it.wall for it in its) / sum(it.wall for it in plain) - 1.0
    own = rec.self_times()
    n_ops = sum(wl.n_ops(it) for it in its)
    for it in its:
        it.failures += layers.coverage_failures(it)
    metrics = layers.span_metrics(rec.spans, own, n_ops, wl.expect.get("group_size"), wall, overhead)
    probe = probe_for(name, seed)
    for key, _ in layers.PROBE_METRICS:
        metrics[key] = probe.get(key, 0.0)
    result = gate(untraced + its, setup)
    units = dict(layers.PER_LAYER)
    print(f"  traced: {len(its)} iterations ({n_ops} x {wl.op}) after {len(plain)} untraced ones; "
          f"{len(rec.spans)} spans over {wall:.3f} s traced wall")
    print(f"  tracing overhead {overhead:+.2%} of untraced stage time for the same iterations")
    for key, unit in layers.PER_LAYER:
        line(key, metrics[key], unit)
    rec.dump(HERE / "out" / f"trace-{name}.json", {"workload": name, "seed": seed, "wall_s": wall})
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k, _ in layers.PER_LAYER}
    return result


def corrupted_output_rejected(wl, ws, out, last, ref) -> bool:
    """Self-test: damage the last iteration's outputs; the gate must fail it."""
    what = wl.corrupt(out)
    failures = wl.check(ws, out, last, ref)
    verdict = "rejected" if failures else "NOT rejected"
    print(f"  self-test: corrupted {what}: {verdict} ({'; '.join(failures)[:200]})")
    return bool(failures)


def names_match_spec(traced: bool, metrics: dict) -> bool:
    """Self-test: the metrics printed are exactly those BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    ok = want == {k: m["unit"] for k, m in metrics.items()}
    print(f"  self-test: metric names and units {'match' if ok else 'DIFFER from'} BENCHMARK.json")
    return ok


def run_all(args) -> int:
    """Each workload in its own process; a summary and combined result last."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.self_test:
            cmd.append("--self-test")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined, sort_keys=True))
    return code


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="stage time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="short run; also checks that a corrupted output fails the gate")
    args = parser.parse_args(argv)
    if args.self_test:
        args.seconds = 0.0
    import_forge()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.self_test)


if __name__ == "__main__":
    sys.exit(main())
