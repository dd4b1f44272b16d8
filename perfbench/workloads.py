"""The benchmark's workloads: generated configs, CLI commands, expected verdicts.

A workload is a fixed list of ``rdlab`` commands that one process runs one
after another: a closed loop with a single client and no worker pool
(``--workers`` is never passed, so every command runs with its defaults).
Config variants are made by text substitution from the shipped
``configs/``; the program only ever sees the generated files.

Only ``spectral_ode`` uses the benchmark seed, which it passes to
``gap --seed`` (the random functions of the fourth-moment sweep).  The other
three workloads are deterministic: every seed gives them the same inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

_RD_VERDICTS = ("conservation", "positivity", "clamped_mass", "upper_bounds")


@dataclass(frozen=True)
class Command:
    """One ``rdlab`` invocation and what a correct run of it must leave."""

    subcommand: str                # verify | sweep | gap
    config: str                    # generated config file name
    verdicts: tuple[str, ...]      # verdict names it must print, all PASS
    outputs: tuple[str, ...]       # files it must write into its --out dir
    seeded: bool = False           # pass the benchmark seed as --seed


@dataclass(frozen=True)
class Workload:
    name: str
    # generated config name -> (shipped config, ((line, replacement), ...))
    configs: dict
    commands: tuple[Command, ...]


def _verify(config: str, *extra: str) -> Command:
    return Command("verify", config, _RD_VERDICTS + extra,
                   ("report.csv", "summary.txt", "series.csv"))


WORKLOADS = {w.name: w for w in (
    # Why: the shipped rd configs as users run them -- 31,000 Strang steps
    # at n = 150-200 with unit and squared exponents.
    # Loads: rdsim.step and the interpreter-bound RK4 kinetics
    # (clamped_mass_action), per-sample diagnostics (rdsim.run), analysis and
    # CSV output (about 800 KB per pass).  Kinetics changes show here.
    # Bypasses: kinetics.integrate_reaction, refinement_study; the n x n
    # propagator is small, so dense diffusion is a minor share.
    Workload("rd_configs", {
        "two_by_two.cfg": ("two_by_two.cfg", ()),
        "two_by_two_highmass.cfg": ("two_by_two_highmass.cfg", ()),
        "self_ionization_rd.cfg": ("self_ionization_rd.cfg", ()),
    }, (
        _verify("two_by_two.cfg", "envelope_domination", "rate_optimality"),
        _verify("two_by_two_highmass.cfg", "envelope_domination"),
        _verify("self_ionization_rd.cfg", "exponential_tail"),
    )),
    # Why: the shipped sweep -- 4 scaled scenarios of 4,000 steps at n = 100,
    # each rebuilding its network, generator, propagator and steady state.
    # Loads: per-scenario set-up (network, diffusion.build_generator) and the
    # small-n stepper; batching scenarios (one batched stepper) shows here.
    # Bypasses: the long rate fits, kinetics.integrate_reaction, the gap study.
    Workload("mass_sweep", {
        "mass_sweep.cfg": ("mass_sweep.cfg", ()),
    }, (
        Command("sweep", "mass_sweep.cfg",
                ("scale_0.25", "scale_0.5", "scale_1", "scale_2"),
                ("sweep.csv",)),
    )),
    # Why: grid scale -- the high-mass two-by-two at n = 3000 and
    # t_end = 0.2, where every verdict still passes.  The 72 MB half-step
    # propagator is over twice the 32 MB shared L3 cache of the machine the
    # benchmark was tuned on, so each step streams it from memory.  At
    # n = 2000 (32 MB, the size of that cache) pass times followed the
    # neighbours' cache use: over 32 interleaved passes the interquartile
    # range was 10% of the median at n = 2000 and 2.6% at n = 3000.
    # Loads: dense diffusion -- the propagator is read twice per step, two
    # spectral syntheses (semigroup_apply) per sample, an n = 3000 eigensolve
    # and propagator build; peak memory.  An O(n log n) diffusion backend and
    # memory changes show here.
    # Bypasses: kinetics is about 1% of the pass; no rate fit is checked.
    Workload("grid_3000", {
        "grid_3000.cfg": ("two_by_two_highmass.cfg",
                          (("n = 200", "n = 3000"),
                           ("t_end = 5.0", "t_end = 0.2"))),
    }, (
        _verify("grid_3000.cfg", "envelope_domination"),
    )),
    # Why: the paths that take no Strang step -- the well-mixed ODE verdicts
    # and the gap refinement study (grids 250-2000) with the fourth-moment
    # sweep at n = 1000.
    # Loads: kinetics (integrate_reaction, envelope_constant,
    # exact_decay_residual), 5 full eigensolves (build_generator via
    # refinement_study) and 150 semigroup applications.
    # Bypasses: rdsim entirely, so a stepper change must leave it unchanged.
    Workload("spectral_ode", {
        "self_ionization_ode.cfg": ("self_ionization_ode.cfg", ()),
        "laplacian_1000.cfg": ("laplacian.cfg",
                               (("n = 200", "n = 1000"),
                                ("refinement = 50 100 200 400",
                                 "refinement = 250 500 1000 2000"))),
    }, (
        Command("verify", "self_ionization_ode.cfg",
                ("steady_state_residual", "conservation", "rate_optimality",
                 "envelope_domination", "closed_form_identity"),
                ("report.csv", "summary.txt", "trajectory.csv")),
        Command("gap", "laplacian_1000.cfg",
                ("refinement_order2", "continuum_eigenvalue",
                 "fourth_moment_decay"),
                ("gap.csv", "gap_summary.txt"), seeded=True),
    )),
)}


def write_configs(workload: Workload, shipped: Path, target: Path) -> None:
    """Generate the workload's config files from the shipped ones.

    Each substitution replaces one whole line and must match exactly once,
    so a change to a shipped config fails here instead of silently changing
    the workload.
    """
    target.mkdir(parents=True, exist_ok=True)
    for name, (source, substitutions) in workload.configs.items():
        text = (shipped / source).read_text()
        for line, replacement in substitutions:
            text, count = re.subn(rf"^{re.escape(line)}$", replacement, text,
                                  flags=re.MULTILINE)
            if count != 1:
                raise ValueError(f"{source}: expected one line {line!r}, "
                                 f"found {count}")
        (target / name).write_text(text)
