"""Guards on the benchmark's view of the program."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rdlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    # The traced benchmark wraps these functions by name; one that is
    # renamed or removed breaks it.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
