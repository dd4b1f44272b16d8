"""Guards on the benchmark's view of the program."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rdlab
from rdlab.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    """A perfbench script, loaded by file path as a module."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # The traced benchmark wraps these functions by name; one that is
    # renamed or removed breaks it.
    tracing = _load("tracing")
    missing = [f"{home}.{name}"
               for home, names in tracing.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"rdlab.{home}"),
                                       name, None))]
    assert missing == []


def test_every_exported_name_resolves():
    # A name deleted from a module but left in an __all__ breaks
    # ``from rdlab import *`` only when someone runs it.
    names = ["rdlab"] + [f"rdlab.{info.name}"
                         for info in pkgutil.iter_modules(rdlab.__path__)]
    missing = [f"{name}.{export}"
               for name in names
               for export in getattr(importlib.import_module(name),
                                     "__all__", ())
               if not hasattr(importlib.import_module(name), export)]
    assert missing == []


def test_setup_probe_builds_every_shipped_config():
    # The benchmark's set-up probe reads ScenarioConfig's fields by name and
    # type (reactants, potential as text, ...) and builds each config
    # through the library; a field it cannot read breaks setup_s.
    probe = _load("setup_probe")
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        probe.build(parse_config(path.read_text()))
