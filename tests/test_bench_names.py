"""The benchmark's tracer (bench/spans.py) wraps package functions by the
names in its TARGETS table; a name that is gone makes its traced metrics
read 0, so each one must still exist."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = _load_spans().TARGETS
    assert len(targets) > 20
    for module, attr, *_ in targets:
        obj = importlib.import_module(f"torusdyn.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"torusdyn.{module}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"torusdyn.{module}.{attr} is not callable"
