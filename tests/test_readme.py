import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import rplattice

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCHMARK = ROOT / "BENCHMARK.json"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    verdict, min_eigenvalue = capsys.readouterr().out.split()
    assert verdict in ("pass", "inconclusive")
    assert float(min_eigenvalue) >= -1e-10


def package_namespaces():
    """Every rplattice module, and every class defined in one, by its name."""
    modules = {
        info.name: importlib.import_module(f"rplattice.{info.name}") for info in pkgutil.iter_modules(rplattice.__path__)
    }
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    return {**classes, **modules}


def resolves(obj, parts):
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        # a dataclass field without a default is not an attribute of its class
        fields = {f.name for f in dataclasses.fields(obj)} if inspect.isclass(obj) and dataclasses.is_dataclass(obj) else ()
        return i == len(parts) - 1 and part in fields
    return True


def test_readme_names_resolve_in_the_package():
    # a dotted name in backticks whose first part is an rplattice module or class must still
    # exist; the benchmark's metric names look like module paths and are not checked
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    namespaces = package_namespaces()
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text(encoding="utf-8")))
    checked = sorted(name for name in names - metrics if name.split(".")[0] in namespaces)
    assert checked
    stale = [name for name in checked if not resolves(namespaces[name.split(".")[0]], name.split(".")[1:])]
    assert not stale, stale
