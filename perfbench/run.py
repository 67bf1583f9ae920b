"""Pipeline benchmark: kb prepare -> pretrain -> train-joint -> eval-kbc -> eval-kbqa.

    python3 perfbench/run.py --workload qa-2k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One process per workload: it
generates the seeded inputs, warms up on a tiny KB, runs the five stages
through the program's click entry point (``kbloop.cli.main``) in process,
checks the outputs independently, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` wraps every layer and reports the
per-layer metrics instead. ``--seconds`` scales the number of questions and
eval-kbc queries; the pretraining epochs are fixed, so at ``--seconds 30``
a run takes 20-55 s on a 2-core x86 machine.

The chat model is the stand-in of ``standin.py``: in process for kbc-20k
and qa-2k, and behind the loopback server of ``server.py`` (one child
process, reached through ``LiveBackend``) for qa-live-2k.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: more BLAS threads than one made the 20k completer
# both slower and noisier on the 2-core reference machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# The machine's speed moves by tens of percent over seconds, alike for
# Python and numpy work. A short fixed kernel (``calibrate``) is timed every
# CALIB_PERIOD_S throughout the run, and a stage's busy time is scaled by
# CALIB_REF_S, the kernel's mean time between the program's work on the
# reference machine, over its mean time during that stage. The mean follows
# the slow spells a median would skip; each sample is first clipped at three
# times the stage's median, since one the process spends descheduled can
# take a hundred times the others and would set the whole stage's scale.
CALIB_PERIOD_S = 0.1
CALIB_REF_S = 0.0016


@dataclass(frozen=True)
class Workload:
    spec: object           # gen.Spec; question counts are per second of --seconds
    config: dict           # RunConfig fields
    queries_per_s: float   # eval-kbc queries per second of --seconds
    question_share: float  # share of the generated questions this workload asks
    live_delay_ms: float   # > 0: chat through the loopback server
    floor_applies: bool    # the completer leaves its plateau, so kbc_mrr must clear chance


def _workloads():
    from gen import Spec

    qa = Spec(n_types=20, type_size=100, n_relations=1000, n_triples=16_000,
              hub_relation_share=0.4, hub_tail_share=0.9, collision_share=0.04,
              n_train_questions=8, n_test_questions=16, two_hop_share=0.35)
    qa_config = dict(keep_fraction=0.5, n_valid=200, epochs=40, batch_size=64,
                     learning_rate=0.05, embedding_dim=8)
    return {
        "kbc-20k": Workload(
            # every training question is answered by Generate, so each ends
            # in a fine-tune of the 20k completer and a checkpoint; four in
            # five test questions ask the completer's top-k
            spec=Spec(n_types=50, type_size=400, n_relations=200, n_triples=100_000,
                      hub_relation_share=0.3, hub_tail_share=0.5, collision_share=0.01,
                      n_train_questions=1, n_test_questions=7,
                      two_hop_share=0.0, train_actions=("generate",),
                      test_actions=("complete",) * 4 + ("generate",)),
            config=dict(keep_fraction=0.1, n_valid=200, epochs=2, batch_size=256,
                        learning_rate=0.01, embedding_dim=64),
            queries_per_s=2, question_share=1.0, live_delay_ms=0.0, floor_applies=False),
        "qa-2k": Workload(qa, qa_config, queries_per_s=20, question_share=1.0,
                          live_delay_ms=0.0, floor_applies=True),
        # the same inputs as qa-2k; it asks the first half of each QA set,
        # since every chat call waits on the server
        "qa-live-2k": Workload(qa, qa_config, queries_per_s=20, question_share=0.5,
                               live_delay_ms=5.0, floor_applies=True),
    }


WARMUP = dict(n_types=4, type_size=20, n_relations=30, n_triples=400,
              hub_relation_share=0.4, hub_tail_share=0.7, collision_share=0.05,
              n_train_questions=6, n_test_questions=6, two_hop_share=0.3)
WARMUP_CONFIG = dict(keep_fraction=0.5, n_valid=10, epochs=2, batch_size=64,
                     learning_rate=0.01, embedding_dim=8)


def _wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/self/io")


_KERNEL: dict = {}


def calibrate() -> None:
    """A fixed Python and numpy kernel: about 0.75 ms in a tight loop on the
    reference machine, about 1.6 ms when it runs between the program's work."""
    import numpy as np

    if not _KERNEL:
        rng = np.random.default_rng(0)
        _KERNEL.update(a=rng.standard_normal((64, 1000)), b=rng.standard_normal((1000, 8)),
                       words=[f"w{i % 97} x{i % 13}" for i in range(600)])
    counts: dict = {}
    for w in _KERNEL["words"]:
        for tok in w.split():
            counts[tok] = counts.get(tok, 0) + 1
    sorted(range(3000), key=lambda i: (i * 7919) % 20011)
    for _ in range(4):
        np.exp((_KERNEL["a"] @ _KERNEL["b"]) * 1e-2).sum()


@contextlib.contextmanager
def sampling_speed(rec):
    """Time ``calibrate`` (span ``bench.calibrate``) every CALIB_PERIOD_S of
    wall time, from a SIGALRM handler, so the samples cover every stage
    without hooks in the program."""
    def sample(signum, frame):
        rec.call("bench.calibrate", calibrate)

    calibrate()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cli(args) -> str:
    import kbloop.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=[str(a) for a in args], prog_name="kbloop", standalone_mode=False)
    return out.getvalue()


class Server:
    """The loopback stand-in server as a child process."""

    def __init__(self, plan_path, delay_ms):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--plan", str(plan_path),
             "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stand-in server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def snapshot(self) -> dict:
        import requests

        return requests.get(f"{self.url}/stats", timeout=30).json()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Stage:
    """One stage command's wall-clock interval."""

    start: float
    end: float
    chat_calls: int    # chat calls the stand-in counted during the stage


class Pipeline:
    """The five stages over inputs generated into ``work``.

    The KB is written first; the questions once ``kb prepare`` has written
    the working graph (``gen.write_questions``). ``table`` is then the plan
    table, with ``train`` and ``test`` holding the questions in the order the
    program is asked them.
    """

    def __init__(self, work: Path, spec, config: dict, seed: int, n_queries: int,
                 live_delay_ms: float = 0.0, question_share: float = 1.0):
        import gen

        self.work = work
        self.inputs = work / "inputs"
        self.run_dir = work / "run"
        self.seed = seed
        self.kb = gen.write_kb(spec, seed, self.inputs)
        self.config = dict(
            config,
            triples_path=str(self.inputs / "triples.tsv"),
            entities_path=str(self.inputs / "entities.tsv"),
            relations_path=str(self.inputs / "relations.tsv"),
            n_test=n_queries, seed=seed,
        )
        self.live_delay_ms = live_delay_ms
        self.question_share = question_share
        self.table: dict = {}
        self.stages: dict[str, Stage] = {}
        self.counter = None

    def _questions(self) -> None:
        import gen

        self.table = gen.write_questions(self.kb, self.seed, self.inputs,
                                         self.run_dir / "working_triples.tsv")
        self.kb = None  # the generator's KB stays out of the later stages' peak RSS
        for key, name in (("train", "qa_train.jsonl"), ("test", "qa_test.jsonl")):
            n = int(len(self.table[key]) * self.question_share)
            path = self.inputs / name
            lines = path.read_text(encoding="utf-8").splitlines(True)[:n]
            path.write_text("".join(lines), encoding="utf-8")
            self.table[key] = self.table[key][:n]

    def _calls(self) -> int:
        return sum(self.counter()["calls"].values()) if self.counter else 0

    def _stage(self, rec, name, args) -> str:
        gc.collect()
        calls = self._calls()
        with rec.stage(f"stage.{name}") as span:
            out = _cli(args)
        self.stages[name] = Stage(span.start, span.end, self._calls() - calls)
        return out

    def run(self, rec) -> dict:
        """Run the stages under ``rec``; return what the metrics and checks need."""
        import kbloop.cli as cli
        from standin import StandIn

        cfg_path = self.work / "config.json"
        cfg = ["--config", cfg_path, "--run-dir", self.run_dir]
        cfg_path.write_text(json.dumps(self.config), encoding="utf-8")
        prepared = self._stage(rec, "prepare", ["kb", "prepare", *cfg])
        self._questions()
        standin = StandIn(self.table)
        server = None
        if self.live_delay_ms > 0:
            plan_path = self.work / "plan.json"
            plan_path.write_text(json.dumps(self.table), encoding="utf-8")
            server = Server(plan_path, self.live_delay_ms)
            cfg_path.write_text(json.dumps(dict(
                self.config, llm_endpoint=f"{server.url}/v1/chat/completions",
                llm_model="standin")), encoding="utf-8")
            self.counter = server.snapshot
        else:
            rec.patch(cli, "_backend", lambda cfg, scripted: standin)
            self.counter = standin.snapshot
        try:
            self._stage(rec, "pretrain", ["pretrain", *cfg])
            wchar = _wchar()
            out = self._stage(rec, "train_joint",
                              ["train-joint", *cfg, "--qa", self.inputs / "qa_train.jsonl"])
            joint_write = _wchar() - wchar
            kbc = json.loads(self._stage(rec, "eval_kbc", ["eval-kbc", *cfg, "--filtered"]))
            shutil.copy(self.run_dir / "report.json", self.run_dir / "kbc_report.json")
            kbqa = json.loads(self._stage(rec, "eval_kbqa",
                                          ["eval-kbqa", *cfg, "--qa", self.inputs / "qa_test.jsonl"]))
            stats = self.counter()
        finally:
            if server is not None:
                server.close()
            self.counter = None
        pretrained = rec.named("completer.pretrain")
        return {
            "kbc": kbc, "kbqa": kbqa, "joint_write": joint_write, "standin": standin,
            "working_triples": int(re.search(r"working=(\d+)", prepared).group(1)),
            "finetunes": int(re.search(r"(\d+) fine-tune updates", out).group(1)),
            "kbqa_calls": self.stages["eval_kbqa"].chat_calls,
            "calls": stats["calls"], "prompt_bytes": stats["prompt_bytes"],
            "losses": pretrained[-1].info if pretrained else [],
        }


def _jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _clipped_mean(samples) -> float:
    cap = 3 * statistics.median(samples)
    return statistics.mean(min(x, cap) for x in samples)


def end_to_end(rec, pipe: Pipeline, res: dict) -> dict:
    """The end-to-end metrics of one untraced run (see README.md).

    A stage's busy time is its wall time less the calibrations that ran in
    it, less the set-up calls recorded in it (``cli._working_kb``,
    ``NativeCompleter.load``) and less the chat delay the server injects; it
    is scaled to reference speed by the calibrations that ran in the stage,
    and the delay is added back. Rates divide the operations the program
    reports by that time.
    """
    delay_s = pipe.live_delay_ms / 1e3
    cals = rec.named("bench.calibrate")
    loads = rec.named("cli.working_kb") + rec.named("completer.load")
    setup, scale, scaled = {}, {}, {}
    for name, st in pipe.stages.items():
        inside = [c.duration for c in cals if rec.stage_of(c) == f"stage.{name}"]
        scale[name] = CALIB_REF_S / _clipped_mean(inside or [c.duration for c in cals])
        setup[name] = sum(s.self_s for s in loads if rec.stage_of(s) == f"stage.{name}")
        wait = st.chat_calls * delay_s
        scaled[name] = (st.end - st.start - sum(inside) - setup[name] - wait) * scale[name] + wait
    latencies = [(t["wall_time_s"] - t["llm_call_count"] * delay_s) * scale["eval_kbqa"]
                 + t["llm_call_count"] * delay_s
                 for t in _jsonl(pipe.run_dir / "kbqa_trajectories.jsonl")]
    n_joint = len(_jsonl(pipe.run_dir / "trajectories.jsonl"))
    return {
        "setup_s": scaled["prepare"] + sum(setup[n] * scale[n] for n in pipe.stages),
        "pretrain_triples_per_s": (res["working_triples"] * pipe.config["epochs"]
                                   / scaled["pretrain"]),
        "joint_write_mb_per_question": res["joint_write"] / 1e6 / n_joint,
        "kbc_queries_per_s": res["kbc"]["n_queries"] / scaled["eval_kbc"],
        "kbqa_questions_per_s": res["kbqa"]["n_questions"] / scaled["eval_kbqa"],
        "kbqa_latency_p50_s": statistics.median(latencies),
        "kbqa_latency_p95_s": statistics.quantiles(latencies, n=20)[-1],
        "kbqa_hits1": res["kbqa"]["hits_at_1"],
        "llm_calls_per_question": res["kbqa_calls"] / res["kbqa"]["n_questions"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        # stderr-only: joint_questions_per_s is left out of BENCHMARK.json
        # (see README.md), raw and scale show the calibration's effect
        "joint_questions_per_s": n_joint / scaled["train_joint"],
        "raw": {n: st.end - st.start - setup[n] for n, st in pipe.stages.items()},
        "scale": scale,
    }


def _run_workload(name, wl: Workload, seed: int, seconds: int, traced: bool):
    import checks
    import spans
    from gen import Spec
    from kbloop.llm import LiveBackend
    from kbloop.prompts import TEMPLATE_NAMES
    from standin import StandIn

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{name}-s{seed}-{os.getpid()}"
    try:
        # warm-up: imports, BLAS start-up, the template catalog, click, every stage
        warm = Pipeline(work / "warmup", Spec(**WARMUP), WARMUP_CONFIG, seed, 20)
        warm_rec = spans.Recorder()
        spans.install_setup(warm_rec)
        try:
            warm.run(warm_rec)
        finally:
            warm_rec.restore()

        spec = replace(wl.spec, n_train_questions=round(wl.spec.n_train_questions * seconds),
                       n_test_questions=round(wl.spec.n_test_questions * seconds))
        pipe = Pipeline(work / "main", spec, wl.config, seed, round(wl.queries_per_s * seconds),
                        wl.live_delay_ms, wl.question_share)
        rec = spans.Recorder()
        chat_owner = LiveBackend if wl.live_delay_ms > 0 else StandIn
        if traced:
            spans.install_layers(rec, chat_owner)
        else:
            spans.install_setup(rec)
        try:
            gc.collect()
            with contextlib.nullcontext() if traced else sampling_speed(rec):
                res = pipe.run(rec)
        finally:
            rec.restore()
        if rec.missing:
            print(f"not wrapped, not in the program: {rec.missing}", file=sys.stderr)

        run_dir = pipe.run_dir
        failed_checks = checks.run_checks(run_dir, pipe.table, res["kbc"], res["kbqa"], res,
                                          wl.floor_applies)
        for check in failed_checks:
            print(f"check failed: {check}", file=sys.stderr)
        joint = _jsonl(run_dir / "trajectories.jsonl")
        n_kbqa_lines = len(_jsonl(run_dir / "kbqa_trajectories.jsonl"))
        failed = sum(1 for t in joint if t["error"]) + (len(pipe.table["test"]) - n_kbqa_lines)
        attempted = len(pipe.table["train"]) + res["kbc"]["n_queries"] + len(pipe.table["test"])
        stage_s = {k: round(st.end - st.start, 3) for k, st in pipe.stages.items()}
        print(f"workload {name} seed {seed}: blas_threads={BLAS_THREADS} stage_s={stage_s} "
              f"kbc_mrr={res['kbc']['mrr']:.5f}", file=sys.stderr)

        if traced:
            metrics = spans.layer_metrics(rec, TEMPLATE_NAMES, wl.live_delay_ms / 1e3,
                                          res["prompt_bytes"])
            metrics["metrics.kbc_mrr"] = res["kbc"]["mrr"]
            print(f"stage coverage: {spans.stage_coverage(rec)}", file=sys.stderr)
            (OUT / "traces").mkdir(exist_ok=True)
            rec.dump(OUT / "traces" / f"{name}-s{seed}.jsonl")
        else:
            metrics = end_to_end(rec, pipe, res)
            print("diag=" + json.dumps({k: metrics.pop(k) for k in
                                        ("joint_questions_per_s", "raw", "scale")}),
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if traced else "end_to_end"]}
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kbloop pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kbloop").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a kbloop checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    result = _run_workload(args.workload, workloads[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
