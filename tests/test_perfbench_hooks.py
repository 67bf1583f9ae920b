"""The benchmark wraps the program's functions by name (``perfbench/spans.py``),
so a rename of one of them fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import kbloop.cli as cli
from kbloop.completer import NativeCompleter
from kbloop.llm import ScriptedBackend

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_finds_every_layer_it_still_measures():
    spans = load_spans()
    rec = spans.Recorder()
    originals = (cli._working_kb, vars(NativeCompleter)["predict"], vars(cli.eval_kbqa)["callback"])
    try:
        spans.install_layers(rec, ScriptedBackend)
        assert cli._working_kb is not originals[0]
    finally:
        rec.restore()
    assert (cli._working_kb, vars(NativeCompleter)["predict"], vars(cli.eval_kbqa)["callback"]) \
        == originals
    # the two names the benchmark wraps that the program no longer has
    assert rec.missing == ["kb.with_triples", "joint.train_joint"]
