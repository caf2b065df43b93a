"""The benchmark's tracer patches program attributes by name; a renamed or
deleted one fails every traced operation, so each must still resolve."""

import importlib.util
from pathlib import Path

from reviewgraph import orchestration, training

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves_and_is_restored():
    tracer = load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _span in tracer.PATCHES if not hasattr(owner, attr)]
    assert not missing, f"perfbench/tracer.py patches missing attributes: {missing}"

    originals = [getattr(owner, attr) for owner, attr, _span in tracer.PATCHES]
    embed_texts, predict = orchestration.embed_texts, training.predict
    t = tracer.Tracer()
    try:
        t.install(0)
        assert training.predict is not predict
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for owner, attr, _span in tracer.PATCHES] == originals
    assert orchestration.embed_texts is embed_texts and training.predict is predict
