#!/usr/bin/env python3
"""Benchmark of the causeway pipeline on seeded synthetic corpora.

    python3 bench/run.py --workload wide-topics --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One run is one process. It generates the workload's corpus from --seed,
times a fresh interpreter importing causeway.cli (setup_s), then drives the
CLI stages in sequence, one caller in a closed loop, until --seconds of stage
time is spent: whole passes first (ingest through score, agree, then
report, so report always embeds the agree outputs) in fresh output
directories, then stages re-run over the last pass, cheapest first. Every
pass is checked against independent re-derivations of its outputs, and all
passes must share one digest. A stage's metric is the median of its
timings; questions_per_s is the question count over the sum of the seven
pipeline stages' medians.

A remote workload first starts the loopback stub (stub.py) and runs one
unmeasured pass that fills the stub's answer memo; its vector cache starts
cold in every pass, and re-runs of build-graph and retrieve go together
from a cold cache.

Stage times are calibrated against the host's drifting CPU speed (see
speed.py): the calling thread's CPU time is scaled to a fixed reference
speed, and its time off the CPU (waiting on the stub process, on worker
threads, on the disk) is added as measured. Raw wall medians are printed
beside the metrics. setup_s is normalised by the time the same host takes
to import the program's dependencies alone (see measure_setup).

With --trace 1 the run alternates an untraced pass with a traced one, and
reports per-layer metrics from the traced passes plus the tracing overhead.
End-to-end metrics come from untraced runs only.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. attempted counts stage invocations plus LLM samples;
failed counts failing stages, failed output checks and transport-failure
placeholder samples. Scratch files go under .bench_work/ in the checkout;
spans of traced runs stay in .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import workloads
from speed import calibrated
from stub import EMBED_DIM, StubProcess
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PIPELINE = layers.PIPELINE
STAGES = layers.STAGES
STAGE_METRICS = {
    "build-graph": "build_graph_s",
    "retrieve": "retrieve_s",
    "infer": "infer_s",
    "postprocess": "postprocess_s",
    "agree": "agree_s",
}
CACHE_STAGES = ("build-graph", "retrieve")
SETUP_PAIRS = 7
# the program's declared dependencies: importing them alone is the yardstick
# for setup_s, and takes REFERENCE_IMPORT_S on the reference host
DEPENDENCIES = "numpy,requests"
REFERENCE_IMPORT_S = 0.25
MAX_STAGE_SAMPLES = 11
# a stage is cheap when all its samples cost at most this share of the budget
CHEAP_SHARE = 0.05
EDGE_THRESHOLD = 0.4
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); "
    "[__import__(m) for m in sys.argv[1].split(',')]; print(time.perf_counter() - t)"
)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _load_program():
    """Imports causeway from this checkout's src/, never from elsewhere."""
    if not (SRC / "causeway" / "cli.py").is_file():
        raise ImportError(f"{SRC / 'causeway'} is missing")
    sys.path.insert(0, str(SRC))
    import causeway
    from causeway import cli

    if Path(causeway.__file__).resolve().parent != (SRC / "causeway").resolve():
        raise ImportError(f"causeway was imported from {causeway.__file__}, not from {SRC}")
    return cli


def _import_seconds(modules: str) -> float:
    """Seconds a fresh interpreter takes to import the modules, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, modules], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def measure_setup() -> list[float]:
    """Seconds a fresh interpreter takes to import causeway.cli, normalised
    by the host's current speed at importing, per pair: each import of
    causeway.cli is followed by an import of its dependencies alone in
    another fresh interpreter, and the pair's ratio times REFERENCE_IMPORT_S
    is the value. Both read files, unmarshal and run module code alike, so a
    drift in the host's speed cancels, which the CPU speed probe does not do
    for imports. One unmeasured pair first compiles the bytecode."""
    times = []
    for i in range(SETUP_PAIRS + 1):
        program = _import_seconds("causeway.cli")
        reference = _import_seconds(DEPENDENCIES)
        if i:
            times.append(program / reference * REFERENCE_IMPORT_S)
    return times


class Runner:
    """Drives the CLI stages in this process and keeps the books: timings
    per stage, attempted and failed operations, problems found."""

    def __init__(self, cli, spec: workloads.WorkloadSpec, inputs: dict[str, Path], corpus, work: Path, stub: StubProcess | None):
        self.cli = cli
        self.spec = spec
        self.inputs = inputs
        self.corpus = corpus
        self.work = work
        self.stub = stub
        self.samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self.wall: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self.other_cpu: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.realism: dict = {}
        self.passes = 0
        self.peak_rss_mb: float | None = None
        self.out: Path | None = None
        self.config: Path | None = None

    @property
    def n_samples(self) -> int:
        return len(self.corpus.questions) * self.spec.k

    def _write_config(self, pass_dir: Path) -> Path:
        config = {
            "questions": str(self.inputs["questions"]),
            "docs": str(self.inputs["docs"]),
            "seed": 0,
            "embedder": {"kind": "mock", "dim": EMBED_DIM},
            "llm": {"kind": "mock-overlap"},
            "hybrid": {"edge_threshold": EDGE_THRESHOLD},
            "sampling": {"k": self.spec.k},
            "theta": 0.5,
            "max_workers": self.spec.max_workers,
        }
        if self.stub:
            retry = {"max_retries": 3, "backoff_base": 0.002}
            config["embedder"] = {
                "kind": "remote", "endpoint": f"{self.stub.url}/embed", "model": "stub-embed",
                "dim": EMBED_DIM, "cache_dir": str(pass_dir / "vectors"), **retry,
            }
            config["llm"] = {"kind": "remote", "endpoint": f"{self.stub.url}/chat", "model": "stub-chat", **retry}
        path = pass_dir / "config.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return path

    def _argv(self, stage: str) -> list[str]:
        argv = [stage, "--config", str(self.config), "--out", str(self.out)]
        if stage == "agree":
            argv += [f"raw={self.out / 'predictions.jsonl'}", f"final={self.out / 'predictions.final.jsonl'}"]
            argv += [f"{name}={self.inputs[name]}" for name in self.corpus.models]
        return argv

    def run_stage(self, stage: str, tracer: Tracer | None = None) -> tuple[float, float] | None:
        """Wall and calibrated seconds the stage took, or None when it
        failed."""
        self.attempted += 1 + (self.n_samples if stage == "infer" else 0)

        def invoke() -> int:
            try:
                return self.cli.main(self._argv(stage))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                return 1

        span = tracer.stage(f"cli.{stage}") if tracer else contextlib.nullcontext()
        other_cpu = time.thread_time() - time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), span:
            rc, wall, seconds = calibrated(invoke)
        other_cpu += time.process_time() - time.thread_time()
        self.other_cpu[stage].append(other_cpu / wall)
        if rc != 0:
            self.failed += 1 + (self.n_samples if stage == "infer" else 0)
            self.problems.append(f"stage {stage} exited with {rc}")
            return None
        return wall, seconds

    def _record(self, stage: str, timing: tuple[float, float]) -> None:
        self.wall[stage].append(timing[0])
        self.samples[stage].append(timing[1])

    def full_pass(self, tracer: Tracer | None = None, record: bool = True) -> tuple[float, float] | None:
        """All stages in a fresh directory, then the output checks. Returns
        the summed wall and calibrated stage seconds, or None when a stage
        failed. Untraced passes feed the stage samples when record is set."""
        previous = self.out.parent if self.out else None
        self.passes += 1
        pass_dir = self.work / f"pass{self.passes}"
        pass_dir.mkdir(parents=True)
        self.out, self.config = pass_dir / "out", self._write_config(pass_dir)
        if self.stub:
            self.stub.reset()
        timings = {}
        for stage in STAGES:
            timing = self.run_stage(stage, tracer)
            if timing is None:
                return None
            timings[stage] = timing
        if tracer is None and record:
            for stage, timing in timings.items():
                self._record(stage, timing)
        if self.peak_rss_mb is None:
            # read before any output check has loaded the artifacts here
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check()
        if previous is not None:
            shutil.rmtree(previous)
        return sum(w for w, _ in timings.values()), sum(c for _, c in timings.values())

    def rerun(self, unit: tuple[str, ...]) -> float | None:
        """Runs stages again over the last pass, from a cold vector cache
        and a reset stub; returns their wall seconds."""
        if self.stub:
            shutil.rmtree(self.out.parent / "vectors", ignore_errors=True)
            self.stub.reset()
        spent = 0.0
        for stage in unit:
            timing = self.run_stage(stage)
            if timing is None:
                return None
            self._record(stage, timing)
            spent += timing[0]
        return spent

    def check(self) -> None:
        problems, placeholders = checks.check_all(self.out, self.corpus.questions, self.spec.k, EDGE_THRESHOLD)
        self.realism = checks.realism(self.out, self.corpus.distractors)
        problems += checks.check_realism(self.realism)
        self.digests.add(checks.digest(self.out))
        if len(self.digests) > 1:
            problems.append("determinism: passes wrote different outputs")
        failed_checks = {p.split(":", 1)[0] for p in problems}
        self.failed += len(failed_checks) + placeholders
        if placeholders:
            problems.append(f"samples: {placeholders} transport-failure placeholders")
        self.problems += problems

    def median(self, stage: str) -> float:
        return statistics.median(self.samples[stage])


def measure(runner: Runner, seconds: float) -> None:
    """Whole passes while one more fits in the budget, then re-runs over the
    last pass, up to MAX_STAGE_SAMPLES per stage: first every cheap stage
    takes all its samples, since short timings are the noisiest and cost
    the budget little, then rounds over the rest, cheapest first. On remote
    workloads build-graph and retrieve re-run together from a cold cache,
    since retrieve alone would find its query vectors cached."""
    spent = 0.0
    while True:
        timing = runner.full_pass()
        if timing is None:
            return
        spent += timing[0]
        if spent + timing[0] > seconds:
            break
    if runner.spec.remote:
        units = [CACHE_STAGES] + [(s,) for s in STAGES if s not in CACHE_STAGES]
    else:
        units = [(s,) for s in STAGES]

    def cost(unit: tuple[str, ...]) -> float:
        return sum(statistics.median(runner.wall[s]) for s in unit)

    def fits(unit: tuple[str, ...]) -> bool:
        return len(runner.wall[unit[0]]) < MAX_STAGE_SAMPLES and spent + cost(unit) <= seconds

    cheap = [u for u in units if cost(u) * MAX_STAGE_SAMPLES <= CHEAP_SHARE * seconds]
    for unit in sorted(cheap, key=cost):
        while fits(unit):
            elapsed = runner.rerun(unit)
            if elapsed is None:
                return
            spent += elapsed
    ran = True
    while ran:
        ran = False
        for unit in sorted(units, key=cost):
            if fits(unit):
                elapsed = runner.rerun(unit)
                if elapsed is None:
                    return
                spent += elapsed
                ran = True
    runner.check()


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> dict[str, float]:
    """Pairs of an untraced and a traced pass while another pair fits;
    per-layer metrics are medians over the traced passes."""
    per_pass: list[dict[str, float]] = []
    spent = 0.0
    while True:
        plain = runner.full_pass()
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = runner.full_pass(tracer)
        finally:
            tracer.restore()
        if plain is None or traced is None:
            return {}
        stub_stats = runner.stub.stats() if runner.stub else {}
        overhead = traced[1] / plain[1] - 1.0
        per_pass.append(layers.derive(tracer, runner.out, runner.realism, stub_stats, overhead))
        tracer.write(trace_path)
        spent += plain[0] + traced[0]
        if spent + plain[0] + traced[0] > seconds:
            break
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def run_one(args) -> int:
    try:
        cli = _load_program()
    except ImportError as exc:
        return _fail(f"cannot load the program: {exc}")
    spec = workloads.WORKLOADS[args.workload]
    work = WORK / f"{spec.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stub = None
    try:
        inputs, corpus = workloads.write_workload(spec, args.seed, work / "inputs")
        sizes = workloads.describe(spec, corpus)
        setup = [] if args.trace else measure_setup()
        if spec.remote:
            stub = StubProcess()
        runner = Runner(cli, spec, inputs, corpus, work, stub)
        if stub:
            runner.full_pass(record=False)  # fills the stub's answer memo
        if args.trace:
            trace_path = WORK / "traces" / f"{spec.name}-seed{args.seed}.spans.jsonl.gz"
            values = measure_traced(runner, args.seconds, trace_path)
            wanted = BENCH["per_layer"]
        else:
            measure(runner, args.seconds)
            values = {"setup_s": statistics.median(setup), "peak_rss_mb": runner.peak_rss_mb}
            if all(runner.samples[s] for s in STAGES):
                values["questions_per_s"] = len(corpus.questions) / sum(runner.median(s) for s in PIPELINE)
                values.update({m: runner.median(s) for s, m in STAGE_METRICS.items()})
            wanted = BENCH["end_to_end"]
        result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted if values.get(m["name"]) is not None}
        if len(result_metrics) != len(wanted):
            runner.problems.append("metrics: some named metrics were not measured")
            runner.failed += 1
    finally:
        if stub:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0 and not runner.problems
    print(f"workload {spec.name} seed {args.seed}: {json.dumps(sizes, sort_keys=True)}")
    print(f"passes {runner.passes}, stage samples {json.dumps({s: len(v) for s, v in runner.samples.items()})}")
    print(f"realism {json.dumps(runner.realism, sort_keys=True)}")
    print(f"digest {' '.join(sorted(runner.digests))}")
    print(f"failed_share {runner.failed / max(runner.attempted, 1):.6f} ({runner.failed}/{runner.attempted})")
    if any(runner.wall.values()):
        walls = {s: round(statistics.median(v), 4) for s, v in runner.wall.items() if v}
        print(f"wall medians (uncalibrated, s) {json.dumps(walls)}")
        others = {s: round(statistics.median(v), 3) for s, v in runner.other_cpu.items() if v}
        print(f"CPU time of other threads per wall second, medians {json.dumps(others)}")
        if max(others.values()) > 0.05:
            print("warning: a calibrated stage computed on more than one thread; "
                  "its factor rests on the probes taken while no other thread ran")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    for name, entry in result_metrics.items():
        moves = " -> {} on {}".format(*layers.MOVES[name]) if name in layers.MOVES else ""
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}{moves}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table, then one JSON line
    whose metric names carry the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return _fail(f"workload {name} printed no result")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="stage time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
