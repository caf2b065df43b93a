"""Benchmark of the reviewgraph pipeline and HGT model.

Run from the root of a reviewgraph source checkout:

    python3 perfbench/run.py --workload train-rule --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    train-rule      one ``training.train`` call on rule graphs per operation
    evaluate-large  one ``reviewgraph evaluate --split test`` command per operation
    pipeline-mock   the five stage commands on a fresh mock workspace per operation

The load is a closed loop with one client: each operation starts when the
previous one ends. The seed only shapes the generated inputs; the program
sees the inputs, never the seed. Every operation's outputs are checked
outside the timed region.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced operations and reports per-layer
span metrics (per traced operation) plus the tracing overhead. The line
before the result is an ``info`` object with run metadata and the
workload-specific figures; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "reviewgraph" / "__init__.py").is_file():
    sys.exit(f"perfbench: no reviewgraph sources at {SRC / 'reviewgraph'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reviewgraph  # noqa: E402
from reviewgraph import cli, graph as graphmod, model, orchestration as orch  # noqa: E402
from reviewgraph import synth, training  # noqa: E402

if Path(reviewgraph.__file__).resolve().parent != (SRC / "reviewgraph").resolve():
    sys.exit(f"perfbench: imported reviewgraph from {reviewgraph.__file__}, not {SRC}")

import tracer as tracing  # noqa: E402

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "graphs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)

# Operations timed per run even when --seconds has already elapsed.
MIN_OPS = 3
SETUP_REPEATS = 5
# Typical probe_seconds() on the 2-vCPU reference host (Python 3.11, numpy 2.4);
# scaled times are in seconds at that host speed.
PROBE_REFERENCE_S = 0.0075
# train-rule seeds 0 .. RECORDED_SEEDS-1 have recorded references.
RECORDED_SEEDS = 100


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        sys.exit(f"perfbench: dense-forward oracle not found at {path}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet_main(argv: list[str]) -> int:
    """Run the CLI in-process with its stdout report swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def rule_examples(n: int, seed: int, first: int, input_dim: int,
                  opinions: tuple[int, int]) -> list[training.GraphExample]:
    """n rule graphs whose opinion counts are spread evenly over the range.

    Every seed gets the same mix of sizes, so the seed changes the graphs'
    content (relations, dimensions, labels, texts) but not the amount of work.
    """
    lo, hi = opinions
    examples = []
    for i in range(n):
        k = lo + round(i * (hi - lo) / max(n - 1, 1))
        examples += synth.generate_rule_dataset(1, seed * 100_000 + first + i, input_dim,
                                                n_opinions=(k, k))
    return examples


class Workload:
    """Defaults shared by the workloads."""

    # Directory of the current set-up, for workloads that write files.
    ws: Path | None = None

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.n_setups = 0

    def teardown(self) -> None:
        """Remove the previous set-up's files; not part of the set-up time."""
        if self.ws is not None:
            shutil.rmtree(self.ws)

    def verify(self) -> None:
        """Untimed check of the program that needs no operation's outputs,
        run once before the first set-up; problems it finds fail every
        operation's check."""

    def prepare(self) -> None:
        """Untimed preparation before each operation."""

    def info(self) -> dict:
        """Workload-specific facts about the inputs and checks."""
        return {}

    def steps(self, tracer: tracing.Tracer | None) -> dict:
        """The operation as named steps, run and timed in order."""
        return {self.name: self.op}

    def stage_rates(self, step_seconds: dict[str, list[float]]) -> dict[str, float]:
        """Items per scaled second of each step of a multi-step operation."""
        return {}

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from disk after a traced operation."""
        return {}


class TrainRule(Workload):
    """One training.train call on rule graphs (criteria 05/06 shape)."""

    name = "train-rule"
    rate_name = "train_graphs_per_s"
    sizes = {"train": 64, "val": 16, "epochs": 1}
    reference_path = Path(__file__).resolve().parent / "reference.json"
    model_config = model.ModelConfig(input_dim=16, hidden_dim=16, num_heads=2, num_layers=2,
                                     ffn_hidden=16, seed=0)

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        super().__init__(seed, sizes, workdir)
        self.train_config = training.TrainConfig(
            learning_rate=1e-3, batch_size=32, max_epochs=sizes["epochs"],
            early_stop_patience=sizes["epochs"], seed=0)
        self.first_history: list[dict] | None = None
        # Only the default sizes are recorded; the self-test's tiny sizes are
        # checked for finiteness and repeatability alone.
        self.checks_reference = sizes == type(self).sizes
        self.recorded: dict = {}
        self.tolerance: dict = {}
        if self.checks_reference and self.reference_path.is_file():
            doc = json.loads(self.reference_path.read_text())
            if doc.get("sizes") == sizes:
                self.recorded, self.tolerance = doc["seeds"], doc["tolerance"]
        self.proxy_problems: list[str] | None = None

    def setup(self) -> None:
        dim = self.model_config.input_dim
        self.train_set = rule_examples(self.sizes["train"], self.seed, 0, dim, (4, 12))
        self.val_set = rule_examples(self.sizes["val"], self.seed, self.sizes["train"], dim,
                                     (4, 12))

    def items(self) -> int:
        return self.sizes["train"] * self.sizes["epochs"]

    def op(self):
        return training.train(self.train_set, self.val_set, self.model_config, self.train_config)

    def check(self, outputs: dict) -> list[str]:
        _checkpoint, history = outputs[self.name]
        problems = [f"epoch {row['epoch']}: non-finite train loss"
                    for row in history if not math.isfinite(row["train_loss"])]
        if len(history) != self.sizes["epochs"]:
            problems.append(f"{len(history)} epochs run, expected {self.sizes['epochs']}")
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            problems.append("history differs from the first call with the same inputs")
        if self.checks_reference and history:
            problems += self.reference_problems(history[-1])
        return problems

    def reference_seed(self) -> int:
        """The recorded seed whose reference vouches for this run's training."""
        return self.seed % RECORDED_SEEDS

    def reference_problems(self, last: dict) -> list[str]:
        """Compare the final epoch with reference.json.

        A seed without a recording is vouched for by a recorded one: once per
        run, that seed's inputs are generated and trained on, untimed, and its
        final epoch must match its recording.
        """
        if not self.recorded:
            return [f"no train-rule reference recorded for sizes {self.sizes}"]
        if str(self.seed) in self.recorded:
            return self.compare(last, self.recorded[str(self.seed)])
        if self.seed == self.reference_seed():
            return [f"seed {self.seed} has no recorded train-rule reference"]
        if self.proxy_problems is None:
            self.verify()
        return self.proxy_problems

    def verify(self) -> None:
        """Train on the vouching seed's inputs, if this seed is not recorded."""
        if not self.checks_reference or str(self.seed) in self.recorded \
                or self.seed == self.reference_seed():
            return
        proxy = TrainRule(self.reference_seed(), self.sizes, self.workdir)
        proxy.recorded, proxy.tolerance = self.recorded, self.tolerance
        proxy.setup()
        _checkpoint, history = proxy.op()
        self.proxy_problems = [f"recorded seed {proxy.seed}: {p}"
                               for p in proxy.reference_problems(history[-1])]

    def compare(self, last: dict, want: dict) -> list[str]:
        problems = []
        loss_tol = self.tolerance["train_loss_rel"] * abs(want["train_loss"])
        if abs(last["train_loss"] - want["train_loss"]) > loss_tol:
            problems.append(f"final train loss {last['train_loss']!r} != recorded "
                            f"{want['train_loss']!r}")
        if abs(last["val_macro_f1"] - want["val_macro_f1"]) > self.tolerance["val_macro_f1_abs"]:
            problems.append(f"final val macro-F1 {last['val_macro_f1']!r} != recorded "
                            f"{want['val_macro_f1']!r}")
        return problems

    def info(self) -> dict:
        if not self.checks_reference:
            return {"reference": "not checked at these sizes"}
        if str(self.seed) in self.recorded:
            return {"reference": "recorded"}
        return {"reference": f"via recorded seed {self.reference_seed()}"}


class EvaluateLarge(Workload):
    """One `reviewgraph evaluate --split test` command over large rule graphs."""

    name = "evaluate-large"
    rate_name = "evaluate_graphs_per_s"
    sizes = {"test": 40}
    model_config = model.ModelConfig(input_dim=64, hidden_dim=64, num_heads=4, num_layers=2,
                                     ffn_hidden=64, seed=0)

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        super().__init__(seed, sizes, workdir)
        self.oracles = _load_oracles()

    def setup(self) -> None:
        """Write graphs, embedding caches, a manifest and a checkpoint, then
        compute the expected report with the dense oracle."""
        self.n_setups += 1
        self.ws = self.workdir / f"setup{self.n_setups}"
        (self.ws / "work").mkdir(parents=True)
        examples = rule_examples(self.sizes["test"], self.seed, 0, self.model_config.input_dim,
                                 (24, 48))
        lines = []
        for ex in examples:
            pid = ex.graph.graph_id
            graphmod.save_graph(ex.graph, self.ws / "work" / f"{pid}.graph.json")
            cache = orch.EmbeddingCache(self.ws / "work" / f"{pid}.emb.jsonl")
            for node in ex.graph.nodes:
                cache.put(node.text, ex.embeddings[node.id])
            lines.append(json.dumps({
                "paper_id": pid, "split": "test", "label": ex.label,
                "paths": {"graph": f"work/{pid}.graph.json",
                          "embeddings": f"work/{pid}.emb.jsonl"},
            }))
        self.manifest = self.ws / "manifest.jsonl"
        self.manifest.write_text("\n".join(lines) + "\n")

        self.checkpoint = self.ws / "model.rvgc"
        training.save_checkpoint(training.Checkpoint(
            version=1, model_config=self.model_config, train_config=training.TrainConfig(),
            epoch=0, best_val_macro_f1=0.0,
            params=model.init_params(self.model_config, self.seed)), self.checkpoint)
        params = training.load_checkpoint(self.checkpoint).params
        preds = [int(np.argmax(self.oracles.dense_forward(ex.graph, ex.embeddings, params,
                                                          self.model_config)))
                 for ex in examples]
        golds = [ex.label_index for ex in examples]
        accuracy, _p, _r, macro_f1 = self.oracles.confusion_metrics(preds, golds)
        self.expected = {"accuracy": round(float(accuracy) * 100, 2),
                         "macro_f1": round(float(macro_f1) * 100, 2), "n": len(examples)}
        self.report = self.ws / "report.json"

    def items(self) -> int:
        return self.sizes["test"]

    def op(self):
        if self.report.exists():
            self.report.unlink()
        return _quiet_main(["evaluate", str(self.manifest), "--checkpoint", str(self.checkpoint),
                            "--split", "test", "--output", str(self.report)])

    def check(self, outputs: dict) -> list[str]:
        code = outputs[self.name]
        if code != 0:
            return [f"evaluate exited {code}"]
        doc = json.loads(self.report.read_text())
        return [f"{key}: reported {doc.get(key)!r}, dense oracle gives {want!r}"
                for key, want in self.expected.items() if doc.get(key) != want]

    def info(self) -> dict:
        return {"expected": self.expected}


_WORDS = ("sparse", "graph", "attention", "debate", "causal", "robust", "federated",
          "contrastive", "neural", "symbolic", "retrieval", "reasoning", "diffusion",
          "transformer", "kernel", "bayesian", "adaptive", "multimodal", "efficient", "scalable")


class PipelineMock(Workload):
    """The five stage commands on a fresh seeded mock workspace."""

    name = "pipeline-mock"
    rate_name = "pipeline_papers_per_s"
    sizes = {"papers": 100}
    jobs = 2
    artifacts = {"transcript": "transcript.json", "triples": "triples.json",
                 "dims": "dims.json", "embeddings": "emb.jsonl", "graph": "graph.json"}

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        super().__init__(seed, sizes, workdir)
        self.n_reps = 0

    def setup(self) -> None:
        """Write the papers and a mock-endpoint run config, then run the stages
        once to record the reference graphs every operation must reproduce."""
        self.n_setups += 1
        self.ws = self.workdir / f"setup{self.n_setups}"
        (self.ws / "papers").mkdir(parents=True)
        rng = random.Random(self.seed)
        self.paper_ids = []
        for i in range(self.sizes["papers"]):
            pid = f"paper-{i:04d}"
            title = " ".join(rng.choice(_WORDS) for _ in range(5)).title()
            body = " ".join(f"We study {rng.choice(_WORDS)} {rng.choice(_WORDS)} methods."
                            for _ in range(40))
            (self.ws / "papers" / f"{pid}.json").write_text(
                json.dumps({"paper_id": pid, "title": f"{title} {i}", "body": body}))
            self.paper_ids.append(pid)
        self.config = self.ws / "run.json"
        self.config.write_text(json.dumps({"endpoint": {"mock": True}}))

        self.rep = self._workspace("reference")
        failed = [f"{stage} exited {code}" for stage, step in self.steps(None).items()
                  if (code := step())]
        if failed:
            raise RuntimeError(f"reference pipeline run failed: {failed}")
        self.reference = self._graph_hashes()
        for name in self.reference:
            report = graphmod.validate_graph(graphmod.load_graph(self.rep / "work" / name))
            if not report.ok:
                raise RuntimeError(f"reference graph {name}: {'; '.join(report.violations)}")

    def _workspace(self, name: str) -> Path:
        """A directory with a manifest over the shared papers and no outputs yet."""
        rep = self.ws / name
        rep.mkdir()
        lines = []
        for i, pid in enumerate(self.paper_ids):
            paths = {"paper": f"../papers/{pid}.json"}
            paths.update({kind: f"work/{pid}.{ext}" for kind, ext in self.artifacts.items()})
            lines.append(json.dumps({
                "paper_id": pid, "split": ("train", "train", "train", "val", "test")[i % 5],
                "label": ("accept", "reject")[i % 2], "paths": paths}))
        (rep / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        return rep

    def prepare(self) -> None:
        if self.n_reps:
            shutil.rmtree(self.rep)
        self.n_reps += 1
        self.rep = self._workspace(f"rep{self.n_reps}")

    def items(self) -> int:
        return self.sizes["papers"]

    def steps(self, tracer: tracing.Tracer | None) -> dict:
        return {stage: functools.partial(self._stage, stage, tracer) for stage in tracing.STAGES}

    def _stage(self, stage: str, tracer: tracing.Tracer | None) -> int:
        argv = ["--config", str(self.config), "--jobs", str(self.jobs), stage,
                str(self.rep / "manifest.jsonl")]
        with tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext():
            return _quiet_main(argv)

    def _graph_hashes(self) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((self.rep / "work").glob("*.graph.json"))}

    def layer_counts(self) -> dict[str, float]:
        kinds = dict(zip(tracing.STAGES, self.artifacts.values()))
        return {f"cli.{stage.replace('-', '_')}.bytes_written":
                float(sum(p.stat().st_size for p in (self.rep / "work").glob(f"*.{ext}")))
                for stage, ext in kinds.items()}

    def check(self, outputs: dict) -> list[str]:
        problems = [f"{stage} exited {code}" for stage, code in outputs.items() if code]
        graphs = self._graph_hashes()
        if len(graphs) != self.sizes["papers"]:
            problems.append(f"{len(graphs)} graphs written for {self.sizes['papers']} papers")
        if graphs != self.reference:
            problems.append("graph files differ from the reference run's")
        return problems

    def stage_rates(self, step_seconds: dict[str, list[float]]) -> dict[str, float]:
        return {f"{stage.replace('-', '_')}_papers_per_s":
                self.sizes["papers"] / statistics.median(times)
                for stage, times in step_seconds.items() if times}


WORKLOADS = {w.name: w for w in (TrainRule, EvaluateLarge, PipelineMock)}


def peak_rss_mb() -> float:
    """ru_maxrss of this process (KiB on Linux) in megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "reviewgraph").glob("*.py")))
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_reviewgraph_lines": src_lines,
    }


def probe_seconds() -> float:
    """Median time of a fixed interpreter-bound task (a loop, JSON, small
    numpy ops); it tracks how fast the host is running this process now."""
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        x = 0
        for i in range(30000):
            x += i * i % 7
        json.loads(json.dumps([{"k": i, "v": [i, i + 1.5]} for i in range(1000)]))
        a = np.zeros(64)
        for _ in range(1000):
            a = a + 1.0
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def timing_summary(times: list[float]) -> dict:
    """Sample count, median, and the highest whole percentile that still has
    at least ten samples above it (when there are enough samples)."""
    good = sorted(t for t in times if math.isfinite(t))
    out: dict = {"n": len(good), "median": statistics.median(good) if good else None}
    if len(good) >= 20:
        pct = math.floor(100 * (1 - 10 / len(good)))
        out[f"p{pct}"] = statistics.quantiles(good, n=100)[pct - 1]
    return out


class Runner:
    """Closed-loop driver for one workload: set up, warm up, time, check.

    Every set-up and operation is bracketed by host-speed probes. Its time
    scaled to the reference speed is raw time x PROBE_REFERENCE_S / (mean of
    the probes before and after). The two vCPUs of a shared host run this
    interpreter-bound code up to 1.9x slower when the sibling hardware thread
    is busy, and that state drifts over seconds to minutes; the scaled times
    remove most of that drift from the gated metrics (raw times are in the
    info line).
    """

    def __init__(self, workload: Workload) -> None:
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[tuple[float, float]] = []
        self.step_seconds: dict[str, list[float]] = {}
        self.last_probe = probe_seconds()
        self.probes = [self.last_probe]

    def _scaled(self, seconds: float) -> float:
        before, self.last_probe = self.last_probe, probe_seconds()
        self.probes.append(self.last_probe)
        return seconds * PROBE_REFERENCE_S / ((before + self.last_probe) / 2)

    def setup(self) -> None:
        self.wl.teardown()
        t0 = perf_counter()
        self.wl.setup()
        raw = perf_counter() - t0
        self.setup_times.append((raw, self._scaled(raw)))

    def one(self, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """One operation: (seconds, scaled seconds), both NaN if it failed.

        Each step of the operation is timed and scaled on its own, so a
        multi-step operation is bracketed by probes at every step boundary.
        """
        self.wl.prepare()
        self.attempted += 1
        raw = scaled = 0.0
        step_seconds: dict[str, float] = {}
        outputs: dict = {}
        try:
            if tracer is not None:
                tracer.install(self.attempted)
            try:
                with tracer.span("op") if tracer else contextlib.nullcontext():
                    for name, step in self.wl.steps(tracer).items():
                        t0 = perf_counter()
                        outputs[name] = step()
                        elapsed = perf_counter() - t0
                        step_seconds[name] = self._scaled(elapsed)
                        raw += elapsed
                        scaled += step_seconds[name]
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = self.wl.check(outputs)
        except Exception as exc:  # a crash of the program is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
            return math.nan, math.nan
        if tracer is None:
            for name, seconds in step_seconds.items():
                self.step_seconds.setdefault(name, []).append(seconds)
        return raw, scaled

    def rate(self, seconds: list[float]) -> float:
        """Items per second of the median successful operation."""
        good = [s for s in seconds if math.isfinite(s)]
        return self.wl.items() / statistics.median(good) if good else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, info object)."""
    cls = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = cls(seed, dict(sizes or cls.sizes), workdir)
        wl.verify()
        runner = Runner(wl)
        for _ in range(SETUP_REPEATS):
            runner.setup()
        runner.one()  # warm-up: checked, not timed
        runner.step_seconds.clear()
        tracer = tracing.Tracer() if trace else None
        untraced: list[tuple[float, float]] = []
        traced: list[float] = []
        counts: dict[str, float] = {}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(untraced) < MIN_OPS:
            untraced.append(runner.one())
            if tracer is not None:
                traced.append(runner.one(tracer)[1])
                for key, value in wl.layer_counts().items():
                    counts[key] = counts.get(key, 0.0) + value
        raw = [t for t, _s in untraced]
        scaled = [s for _t, s in untraced]
        rate = runner.rate(scaled)
        setup_s = statistics.median(s for _t, s in runner.setup_times)
        rss = peak_rss_mb()
        if tracer is None:
            values = {"setup_s": setup_s, "graphs_per_s": rate, "peak_rss_mb": rss}
            spec = END_TO_END
        else:
            values = {m["name"]: 0.0 for m in tracing.PER_LAYER}
            values.update(tracer.layer_metrics(len(traced)))
            values.update({k: v / len(traced) for k, v in counts.items()})
            traced_rate = runner.rate(traced)
            values["trace.overhead_ratio"] = rate / traced_rate if traced_rate else 0.0
            values["trace.graphs_per_s.traced"] = traced_rate
            values["trace.graphs_per_s.untraced"] = rate
            values["trace.peak_rss_mb"] = rss
            spec = tracing.PER_LAYER
            tracer.write(WORK / f"spans-{workload_name}-seed{seed}.npz")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

        stage_rates = wl.stage_rates(runner.step_seconds)
        named = {
            "setup_s": (setup_s, "s"),
            wl.rate_name: (rate, "1/s"),
            **{k: (v, "1/s") for k, v in stage_rates.items()},
            "peak_rss_mb": (rss, "MB"),
            "failed_ratio": (runner.failed / runner.attempted, "ratio"),
        }
        info = {
            "workload": workload_name, "seed": seed, "trace": int(trace),
            "sizes": wl.sizes, "loop": "closed, one client",
            "metadata": run_metadata(),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "unscaled": {"graphs_per_s": runner.rate(raw),
                         "setup_s": statistics.median(t for t, _s in runner.setup_times)},
            "problems": runner.problems[:10],
            "op_seconds": {**timing_summary(raw), "all": raw},
            "op_scaled_seconds": {**timing_summary(scaled), "all": scaled},
            "setup_seconds": runner.setup_times,
            "probe_seconds": runner.probes,
            **wl.info(),
        }
        if tracer is not None:
            info["per_layer_measured_on"] = workload_name
            info["traced_ops"] = len(traced)
        result = {"correct": runner.failed == 0, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
