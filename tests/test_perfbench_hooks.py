"""The benchmark wraps the program's functions by name (``perfbench/spans.py``),
so a rename of one of them fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import kbloop.cli as cli
from kbloop.agent import AgentConfig
from kbloop.completer import NativeCompleter, Snapshot, TrainingConfig
from kbloop.joint import QaExample, RunLog, run_joint_training
from kbloop.llm import ScriptedBackend

from conftest import make_kb

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


def test_traced_run_reads_k_and_the_path_triples_where_the_program_passes_them(tmp_path):
    """The traced run reads ``predict``'s k from ``args[3]`` (or ``k``) and
    ``incremental_finetune``'s path triples from ``args[1]``: one joint
    question with a Complete step and a one-triple path pins both."""
    kb = make_kb(
        [(f"e{i}", "r", f"e{i + 1}") for i in range(9)],
        entities={f"e{i}": (f"E{i}", "") for i in range(10)},
        relations={"r": ("rel r", "a test relation", "[Thing], rel r, [Thing]")},
    )
    config = TrainingConfig(epochs=2, seed=0, finetune_passes=1)
    model = NativeCompleter(kb, dim=4, seed=0)
    model.pretrain(sorted(kb.triples), kb, config)
    RunLog(tmp_path).restart(model)
    script = [
        ("", "Thought 1: ask.\nAction 1: Complete[E0 | rel r]"),
        ("", "Thought 2: make one.\nAction 2: Generate[what relates to E0?]"),
        ("Generated Triples", '"""\n1. E0, rel r, E5\n"""'),
        ("New Triples", '"""\n1. E0, rel r, E5\n"""'),
        ("", "Thought 3: found it.\nAction 3: Finish[E5]"),
        ("Known triples", "Related triples:\nE0, rel r, E5"),
    ]
    spans = load_spans()
    rec = spans.Recorder()
    try:
        spans.install_layers(rec, ScriptedBackend)
        result = run_joint_training(
            tmp_path, kb, [QaExample("q?", ("e0",), ("E5",))], Snapshot(model),
            ScriptedBackend(script), agent_config=AgentConfig(complete_top_k=3),
            train_config=config,
        )
    finally:
        rec.restore()
    assert [len(r["path"]["triples"]) for r in result.records] == [1]
    assert [s.info for s in rec.named("completer.predict")] == [3]
    assert [s.info for s in rec.named("completer.finetune")] == [1]
