"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics the code reports, that every
workload prints every end-to-end metric with its unit (and the named
per-workload figures in its info line), that the traced run prints every
per-layer metric, that deliberately failed output checks (evaluate-large's
oracle, train-rule's recorded reference) are counted in ``failed``, and
that the benchmark refuses to run without the program's sources. Exits
non-zero if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run
import tracer as tracing

TINY = {
    "train-rule": {"train": 4, "val": 2, "epochs": 1},
    "evaluate-large": {"test": 3},
    "pipeline-mock": {"papers": 3},
}
# Per-layer metrics that must be non-zero on each workload, one or more per
# layer the workload is meant to stress.
ACTIVE = {
    "train-rule": ["autodiff.matmul.calls", "autodiff.backward.self_s",
                   "autodiff.ops_per_graph_step", "model.forward_loss.self_s",
                   "training.adam_step.calls", "training.train.self_s"],
    "evaluate-large": ["autodiff.segment_softmax.bytes_out", "autodiff.ops_per_graph_predict",
                       "model.predict.self_s", "graph.load_graph.self_s",
                       "orchestration.EmbeddingCache.load_s", "cli.load_manifest.self_s"],
    "pipeline-mock": ["extraction.parse_triple_batch.calls", "graph.validate_graph.calls",
                      "orchestration.chat_requests", "orchestration.EmbeddingCache.put.calls",
                      "cli.build_graph.bytes_written"],
}
NAMED = {
    "train-rule": ["train_graphs_per_s"],
    "evaluate-large": ["evaluate_graphs_per_s"],
    "pipeline-mock": ["pipeline_papers_per_s"] + [
        f"{s.replace('-', '_')}_papers_per_s" for s in tracing.STAGES],
}


def invoke(workload: str, trace: int, sizes: dict, seed: int = 3) -> tuple[dict, dict]:
    """Run main() in-process; returns the parsed (info, result) lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)], sizes=sizes)
    assert code == 0, code
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_result_shape(result: dict, spec) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in spec], list(result["metrics"])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert math.isfinite(got["value"]), (m["name"], got)


def test_benchmark_json_matches_code() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert doc["end_to_end"] == list(run.END_TO_END)
    assert doc["per_layer"] == list(tracing.PER_LAYER)


def test_untraced_runs_print_end_to_end_metrics() -> None:
    for workload, sizes in TINY.items():
        info, result = invoke(workload, 0, sizes)
        check_result_shape(result, run.END_TO_END)
        assert result["correct"] and result["failed"] == 0, info["problems"]
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        named = info["end_to_end"]
        for name in ["setup_s", "peak_rss_mb", "failed_ratio"] + NAMED[workload]:
            assert name in named and "unit" in named[name], (workload, name)
        assert named["failed_ratio"]["value"] == 0.0
        assert set(info["metadata"]) == {"git_commit", "nproc", "python", "numpy",
                                         "src_reviewgraph_lines"}


def test_traced_runs_print_per_layer_metrics() -> None:
    for workload, sizes in TINY.items():
        info, result = invoke(workload, 1, sizes)
        check_result_shape(result, tracing.PER_LAYER)
        assert result["correct"], info["problems"]
        assert info["per_layer_measured_on"] == workload
        for name in ACTIVE[workload] + ["trace.overhead_ratio", "trace.graphs_per_s.traced"]:
            assert result["metrics"][name]["value"] > 0, (workload, name)


def test_failed_output_check_is_counted() -> None:
    original = run.EvaluateLarge.setup

    def sabotaged(self):
        original(self)
        self.expected["accuracy"] += 1.0

    run.EvaluateLarge.setup = sabotaged
    try:
        info, result = invoke("evaluate-large", 0, TINY["evaluate-large"])
    finally:
        run.EvaluateLarge.setup = original
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert info["end_to_end"]["failed_ratio"]["value"] == 1.0
    assert any("dense oracle" in p for p in info["problems"]), info["problems"]


def test_wrong_train_reference_is_counted() -> None:
    """A wrong recorded train loss fails the run, whether the seed is recorded
    itself (3) or vouched for by the recorded seed it equals modulo 100 (1003)."""
    original = run.TrainRule.__init__

    def wrongly_recorded(self, seed, sizes, workdir):
        original(self, seed, sizes, workdir)
        self.checks_reference = True
        self.recorded = {str(s): {"train_loss": 123.0, "val_macro_f1": 0.0}
                         for s in range(run.RECORDED_SEEDS)}
        self.tolerance = {"train_loss_rel": 1e-6, "val_macro_f1_abs": 1e-9}

    run.TrainRule.__init__ = wrongly_recorded
    try:
        for seed, reference in ((3, "recorded"), (1003, "via recorded seed 3")):
            info, result = invoke("train-rule", 0, TINY["train-rule"], seed)
            assert info["reference"] == reference, info["reference"]
            assert not result["correct"] and result["failed"] >= 1, result
            assert any("!= recorded 123.0" in p for p in info["problems"]), info["problems"]
    finally:
        run.TrainRule.__init__ = original


def test_refuses_to_run_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-rule", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # report every failing check, then exit non-zero
            failures += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
