"""Guards on the benchmark's view of the program."""

import importlib
import importlib.util
from pathlib import Path

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
