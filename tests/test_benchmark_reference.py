"""The benchmark's train-rule workload checks that training still gives the
final loss and validation macro-F1 recorded in perfbench/reference.json,
within the tolerance stated there. Running seeds 0-2 of that check with the
tests catches a kernel rewrite that changes training's results before any
benchmark run. The file workloads, evaluate-large and pipeline-mock, run one
checked operation each at small sizes, so that a change to what they write
or read fails here before it fails a benchmark run. perfbench/run.py is
loaded as the tracer test loads the tracer: read-only, as a module of its
own."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_tracer = list(sys.path), sys.modules.get("tracer")
    sys.path.insert(0, str(PERFBENCH))  # run.py imports tracer.py from its own directory
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        if saved_tracer is None:
            sys.modules.pop("tracer", None)
        else:
            sys.modules["tracer"] = saved_tracer
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_rule_seed_reproduces_its_recorded_reference(bench, seed):
    workload = bench.TrainRule(seed, dict(bench.TrainRule.sizes), workdir=None)
    assert str(seed) in workload.recorded, "no train-rule reference recorded for this seed"
    workload.setup()
    _checkpoint, history = workload.op()
    assert workload.reference_problems(history[-1]) == []


#: The workloads that write and read the pipeline's files, at small sizes.
FILE_WORKLOAD_SIZES = {"evaluate-large": {"test": 4}, "pipeline-mock": {"papers": 3}}


@pytest.mark.parametrize("name", FILE_WORKLOAD_SIZES)
def test_file_workload_runs_one_checked_operation(bench, tmp_path, name):
    workload = bench.WORKLOADS[name](3, FILE_WORKLOAD_SIZES[name], tmp_path)
    workload.setup()
    workload.prepare()
    outputs = {step_name: step() for step_name, step in workload.steps(None).items()}
    assert workload.check(outputs) == []
