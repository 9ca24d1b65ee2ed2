"""The benchmark's span hooks name attributes that exist in forge."""

import importlib.util
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
