"""Outside-in tracing of rdlab's public functions, for the per-layer metrics.

The program is not changed: each traced function is replaced, for the length
of one pass, by a wrapper in every ``rdlab`` namespace that binds it.  A
module that did ``from .diffusion import semigroup_apply`` holds its own
reference, so ``rdsim`` (``semigroup_apply``, ``propagator``,
``steady_state``), ``cli`` (``build_network``, ``steady_state``,
``compile_expression``), ``analysis`` (``semigroup_apply``,
``steady_state``), ``kinetics`` (``fit_decay_rate``) and the package itself
are patched as well as the defining module.

Each call is a span.  Spans nest through a stack: a layer's self time is
its duration minus the time covered by the spans it caused.  Totals are
kept in memory and read after each pass.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Defining module -> public functions traced, named "<module>.<function>".
TARGETS = {
    "config": ("parse_config", "compile_expression"),
    "network": ("build_network", "steady_state"),
    "diffusion": ("build_generator", "propagator", "semigroup_apply",
                  "refinement_study"),
    "kinetics": ("integrate_reaction", "envelope_constant",
                 "exact_decay_residual"),
    "rdsim": ("run", "step", "clamped_mass_action"),
    "analysis": ("fit_decay_rate", "envelope_inputs",
                 "fourth_moment_decay_check"),
    "cli": ("main",),
}

# Counters read from the traced functions' arguments and results.
COUNTERS = ("rdsim.samples", "rdsim.clamp_events", "diffusion.operator_bytes")


def _array_bytes(obj) -> int:
    return sum(getattr(value, "nbytes", 0) for value in vars(obj).values())


class Tracer:
    """Span totals per traced function, plus the per-call step durations."""

    def __init__(self):
        self.step_us: list[float] = []   # every traced step, all passes
        self._open: list[float] = []     # child time of each open span
        self._totals = self._zeros()

    @staticmethod
    def _zeros() -> dict:
        totals = {name: 0.0 for name in COUNTERS}
        for module, names in TARGETS.items():
            for name in names:
                for suffix in (".s", ".self_s", ".calls"):
                    totals[f"{module}.{name}{suffix}"] = 0.0
        return totals

    def take(self) -> dict:
        """Return this pass's totals by metric name and start a new pass."""
        totals, self._totals = self._totals, self._zeros()
        return totals

    def _observe(self, name, args, result, elapsed):
        if name == "rdsim.step":
            self.step_us.append(elapsed * 1e6)
            if result.clamp_l1 > args[0].clamp_l1:
                self._totals["rdsim.clamp_events"] += 1
        elif name == "rdsim.run":
            self._totals["rdsim.samples"] += len(result.times)
        elif name == "diffusion.build_generator":
            self._totals["diffusion.operator_bytes"] += _array_bytes(result)
        elif name == "diffusion.propagator":
            self._totals["diffusion.operator_bytes"] += result.nbytes

    def _wrap(self, name, fn):
        totals_key = (f"{name}.s", f"{name}.self_s", f"{name}.calls")

        @wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                total, own, calls = totals_key
                self._totals[total] += elapsed
                self._totals[own] += elapsed - children
                self._totals[calls] += 1
            self._observe(name, args, result, elapsed)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every rdlab namespace; restore on exit."""
        modules = [module for key, module in list(sys.modules.items())
                   if key == "rdlab" or key.startswith("rdlab.")]
        patched = []
        try:
            for home, names in TARGETS.items():
                for fname in names:
                    original = getattr(sys.modules[f"rdlab.{home}"], fname)
                    wrapper = self._wrap(f"{home}.{fname}", original)
                    for module in modules:
                        if vars(module).get(fname) is original:
                            setattr(module, fname, wrapper)
                            patched.append((module, fname, original))
            yield self
        finally:
            for module, fname, original in reversed(patched):
                setattr(module, fname, original)
