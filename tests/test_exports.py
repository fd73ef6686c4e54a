import importlib
import importlib.util
from pathlib import Path

import tcone


def test_every_export_resolves():
    missing = [name for name in tcone.__all__ if not hasattr(tcone, name)]
    assert missing == []
    assert len(set(tcone.__all__)) == len(tcone.__all__)


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps by name still exists:
    a target that no longer resolves would end every traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, attr in tracer.TARGETS:
        owner = importlib.import_module(f"tcone.{modname}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, name)), (modname, attr)
        if classes:
            assert name in owner.__dict__, (modname, attr)
