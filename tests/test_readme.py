import argparse
import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import rplattice
from rplattice import cli

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


def first_block_after(heading, lang):
    """The first fenced block of the given language after the README heading line."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", text, re.DOTALL).group(1)


def test_readme_cli_synopsis_names_each_subcommands_options():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    synopsis = first_block_after("## CLI", "sh").splitlines()
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in synopsis}
    assert set(documented) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        options = {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")}
        assert documented[name] == options - {"--help"}, name


def test_readme_config_schema_resolves(tmp_path):
    config = json.loads(first_block_after("### Config schema", "json"))
    resolved = cli.resolve_config(config, tmp_path)
    assert None not in (resolved.covariance, resolved.density, resolved.phis, resolved.mc)
    # and verify-rp passes on it, at fewer draws
    config["mc"].update(n_samples=4000, n_outer=200, n_inner=50)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["verify-rp", "--config", str(path), "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
