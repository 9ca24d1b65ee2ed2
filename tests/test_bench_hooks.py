"""The benchmark's span hooks name attributes that exist in forge."""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _, _ in spans.LAYER_HOOKS])
def test_layer_hook_resolves(owner, attr):
    # Recorder.install reads owner.__dict__[attr]; a rename in src/ would
    # otherwise first show as a KeyError in the traced benchmark run.
    assert attr in vars(spans._resolve(owner)), f"{owner}.{attr} is gone"


# The parameter each positional read in a span fact expects, per hook. A
# rename or a move in src/ would otherwise make the traced run read the
# wrong argument (or fail) instead of failing here.
POSITIONAL_READS = {
    ("forge.cli", "save_checkpoint"): {1: "path"},
    ("forge.checkpoint", "save_checkpoint"): {1: "path"},
    ("forge.cli", "pack_samples"): {1: "max_len"},
    ("forge.cli", "scrub"): {0: "text"},
    ("forge.datapipe.tokenizer.TokenizerModel", "encode"): {1: "text"},
    ("forge.train.loops", "forward"): {1: "tokens"},
    ("forge.evalharness", "forward"): {1: "tokens"},
    ("forge.tensor.Graph", "backward"): {0: "self"},
    ("forge.train.loops", "sft_batch_loss"): {1: "batch"},
    ("forge.train.loops", "sample_response"): {5: "stop_id"},
}


def positional_reads(fact) -> set:
    return {int(i) for i in re.findall(r"\bargs\[(\d+)\]", inspect.getsource(fact))} if fact else set()


@pytest.mark.parametrize("owner,attr,fact", [(o, a, f) for o, a, _, f in spans.LAYER_HOOKS])
def test_positional_reads_are_listed(owner, attr, fact):
    assert positional_reads(fact) == set(POSITIONAL_READS.get((owner, attr), {}))


@pytest.mark.parametrize("owner,attr", sorted(POSITIONAL_READS))
def test_positional_reads_name_the_expected_parameter(owner, attr):
    params = list(inspect.signature(vars(spans._resolve(owner))[attr]).parameters)
    for pos, name in POSITIONAL_READS[(owner, attr)].items():
        assert pos < len(params) and params[pos] == name, f"{owner}.{attr} parameters {params}"
