"""The benchmark's tracer patches kamlab's functions and evaluators by name;
every name it lists must still resolve, or traced runs break."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from kamlab.fourier_taylor import CompiledSeries

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for layer, names in tracing._FUNCTIONS.items():
        module = importlib.import_module(f"kamlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"kamlab.{layer}.{name}"
    for layer, classes in tracing._METHODS.items():
        module = importlib.import_module(f"kamlab.{layer}")
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for name in methods:
                assert name in cls.__dict__, f"kamlab.{layer}.{cname}.{name}"
    # evaluators are patched in the class body and called as fn(comp, theta, I)
    for name in tracing._POINT_EVALS + tracing._BATCH_EVALS:
        assert name in CompiledSeries.__dict__, name
        params = inspect.signature(CompiledSeries.__dict__[name]).parameters
        assert list(params) == ["self", "theta", "I"], name
