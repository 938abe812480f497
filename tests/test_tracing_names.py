import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# instrument() rebinds these two besides the SPANNED list
REBOUND = [("gaussian", "iter_sample_chunks"), ("streams", "substream")]


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    # read the benchmark tracer without leaving bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, function) for module, function, _ in tracing.SPANNED] + REBOUND
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"rplattice.{module}"), function, None))
    ]
    assert not missing, f"bench/tracing.py traces names rplattice no longer has: {missing}"
