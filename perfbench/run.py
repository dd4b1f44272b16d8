"""rdlab benchmark: four CLI workloads, verdict-gated, with a traced mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``rdlab`` from the
checkout's ``src/`` (nothing needs installing), reads the shipped
``configs/`` and writes only under ``.bench_out/``, which it removes again.
It exits with code 2, printing no result, where there are no sources.
The workloads and why each was chosen are in ``workloads.py``; metric names
and units are those of ``BENCHMARK.json``.

How a run measures
------------------
* A closed loop with one client: ``rdlab.cli.main(argv)`` runs in this
  process, one command at a time, with default flags (no ``--workers``).
* Five set-up samples, each a fresh interpreter (``setup_probe.py``), and
  untraced, one peak-memory pass in another (``rss_probe.py``).  Then, in
  this process, one warm-up pass and timed passes until ``--seconds`` have
  elapsed.
* Every pass writes into a fresh, empty output directory, removed after the
  pass outside the timed region.  Rewriting files in place would time the
  file system instead: on ext4, truncating a file written moments earlier
  costs about 68 ms per ``open`` (the delayed-allocation flush), which made
  a rerun of ``sweep`` into the same directory take 1.4 s instead of
  0.75 s, 0.8 s of it in ``io.open`` (measured on a 2-core machine).
* BLAS runs on one thread, pinned through its environment variables before
  numpy is imported: the plain single-threaded baseline.  With 2 threads on
  that 2-core machine, ``verify`` of the high-mass config at n = 2000
  drifted between 2.40 and 2.72 s per pass from run to run, and ``spectral_ode`` ran both slower and noisier.
* Every pass is a correctness gate: each command's exit code is checked and
  every PASS/FAIL line parsed.  A FAIL, a verdict the command should have
  printed but did not, or any verdict of a command that exits non-zero or
  raises counts as a failed operation.  The pass's time is still reported.

End-to-end metrics (``--trace 0``), per workload
-------------------------------------------------
``wall_s``                 median time of a timed pass.  The record line
                           also gives the quartiles and the highest
                           percentile with at least 10 passes beyond it.
``setup_s``                median over the set-up samples of importing
                           ``rdlab.cli`` plus building the workload's
                           operators through the library.
``cell_steps_per_s``       steps x species x cells per second, median over
                           passes; a well-mixed run counts as one cell and
                           its accepted integrator steps as steps; the gap
                           study takes no time step.
``peak_rss_mb``            ``ru_maxrss`` of a fresh process that runs one
                           checked pass of this workload and nothing else
                           (``rss_probe.py``).
``verdict_pass_fraction``  verdicts passed over verdicts attempted; 1 when
                           every verdict passes.
``rate_rel_err``           worst |rate_fit - rate_theory| / rate_theory over
                           report rows whose theoretical rate is sharp
                           (``well_mixed``, ``mass_below_gap``).  A workload
                           with no such row (``grid_3000``) takes every row
                           that reports both rates, which there measures the
                           fitted rate's distance above the envelope rate.
``conservation_tol_ratio`` worst ``conservation_max`` of any
                           ``summary.txt`` over its tolerance; for the
                           well-mixed run, its conservation drift over its
                           own tolerance.

Per-layer metrics (``--trace 1``)
---------------------------------
Untraced and traced passes alternate.  Traced passes wrap rdlab's public
functions from outside (``tracing.py``); each metric is the median over
traced passes of its per-pass value.  ``<function>.s`` is time inside the
function, ``.self_s`` that time minus the traced functions it called, and
``.calls`` its call count.  ``rdsim.step_us.*`` are percentiles of single
traced steps, ``rdsim.clamp_events`` counts steps whose returned
``clamp_l1`` grew, ``diffusion.operator_bytes`` sums ``nbytes`` of the
arrays ``build_generator`` and ``propagator`` return, and
``cli.output_bytes``/``cli.output_files`` measure what a pass writes.
``trace.overhead_s`` is the median traced pass minus the median untraced
pass; at this tracing grain ``rd_configs`` makes about 124k
``clamped_mass_action`` calls per pass.  A layer that a workload does not
run reads 0 there.

Which end-to-end metric each layer should move, on which workload.  The
shares are of a traced pass of the seed code on a 2-core AMD EPYC virtual
machine; a span's share includes the spans it caused.

* ``rdsim.step.*``, ``rdsim.step_us.*``: ``wall_s`` and
  ``cell_steps_per_s`` on ``rd_configs`` (85%), ``mass_sweep`` (91%) and
  ``grid_3000`` (69%, of which 18% is the propagator built lazily by the
  first step).
* ``rdsim.clamped_mass_action.*``: ``wall_s`` on ``rd_configs`` (43%) and
  ``mass_sweep`` (51%) only; 1% of ``grid_3000``.
* ``rdsim.run.self_s``, ``rdsim.samples``, ``rdsim.clamp_events``:
  ``wall_s`` on ``rd_configs`` (7%).
* ``diffusion.semigroup_apply.*``: ``wall_s`` on ``grid_3000`` (21%), and
  ``rd_configs`` (6%) and ``spectral_ode`` (13%).
* ``diffusion.build_generator.*``: ``setup_s`` and ``wall_s`` on
  ``grid_3000`` (9%) and ``wall_s`` on ``spectral_ode`` (66%);
  ``diffusion.propagator.s``: ``setup_s`` and ``wall_s`` on ``grid_3000``
  (18%); ``diffusion.operator_bytes``: ``peak_rss_mb`` on ``grid_3000``.
* ``diffusion.refinement_study.s`` (57%), ``kinetics.*`` (14%),
  ``analysis.fourth_moment_decay_check.s`` (17%): ``wall_s`` on
  ``spectral_ode`` only.
* ``network.*``, ``config.*``, ``setup.import_s``: ``setup_s``, mostly on
  ``mass_sweep``, which repeats its set-up for each of its four scales.
* ``analysis.fit_decay_rate.s``, ``analysis.envelope_inputs.s``,
  ``cli.main.self_s`` (formatting and CSV writing, 2%), ``cli.output_*``:
  ``wall_s`` on ``rd_configs``.

Output
------
The line before last is a JSON record of the run: the environment (Python,
numpy, scipy, BLAS and its pinned thread count, CPU count, git commit when
the checkout has one, and a digest of the sources), every pass time,
traced and untraced, the set-up samples and any problem found.  The last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count verdicts.
"""

import os

BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SHARP_REGIMES = ("well_mixed", "mass_below_gap")
_VERDICT = re.compile(r"^(PASS|FAIL) (\S+): (.*)$")
_DRIFT = re.compile(r"max drift (\S+) \(tol (\S+)\)")


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


@dataclass
class Pass:
    """One pass over a workload's commands and what its outputs showed."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    cell_steps: int = 0
    rate_rows: list = field(default_factory=list)  # (regime, rel. rate error)
    conservation_ratios: list = field(default_factory=list)
    output_bytes: int = 0
    output_files: int = 0


def import_cli():
    if not (SRC / "rdlab" / "cli.py").is_file():
        raise BenchmarkError(f"no rdlab sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import rdlab.cli
    if Path(rdlab.cli.__file__).resolve().parent != (SRC / "rdlab").resolve():
        raise BenchmarkError(f"imported rdlab from {rdlab.cli.__file__}, "
                             f"not from {SRC}")
    return rdlab.cli


def cell_steps(cfg, out_dir: Path) -> int:
    """Steps x species x cells of one command; a well-mixed run is one cell."""
    species = len(cfg.initial)
    if cfg.kind == "spectral_gap":
        return 0
    if cfg.kind == "ode":
        with open(out_dir / "trajectory.csv") as fh:
            return (sum(1 for _ in fh) - 2) * species   # header, t = 0
    runs = len(cfg.sweep_values) if cfg.kind == "sweep" else 1
    return runs * round(cfg.t_end / cfg.dt) * species * cfg.n_cells


def _summary(path: Path) -> dict:
    return dict(line.partition(": ")[::2]
                for line in path.read_text().splitlines())


def check_command(cmd, cfg, out_dir: Path, code, stdout: str, stderr: str,
                  result: Pass, tolerance: float) -> None:
    """Fold one command's verdicts and outputs into the pass ``result``."""
    verdicts = {}
    for line in stdout.splitlines():
        match = _VERDICT.match(line)
        if match:
            verdicts[match[2]] = (match[1] == "PASS", match[3])
    missing = [name for name in cmd.verdicts if name not in verdicts]
    attempted = len(verdicts) + len(missing)
    failed = len(missing) + sum(not ok for ok, _ in verdicts.values())
    label = f"{cmd.subcommand} {cmd.config}"
    if code != 0:
        failed = attempted
        result.problems.append(f"{label}: exit {code}: {stderr.strip()[-500:]}")
    result.problems += [f"{label}: no verdict {name}" for name in missing]
    result.problems += [f"{label}: FAIL {name}: {detail}"
                        for name, (ok, detail) in verdicts.items() if not ok]
    result.attempted += attempted
    result.failed += failed
    absent = [name for name in cmd.outputs if not (out_dir / name).is_file()]
    if absent:
        result.problems.append(f"{label}: did not write {', '.join(absent)}")
        return

    result.cell_steps += cell_steps(cfg, out_dir)
    for report in out_dir.rglob("report.csv"):
        with open(report, newline="") as fh:
            for row in csv.DictReader(fh):
                fit, theory = float(row["rate_fit"]), float(row["rate_theory"])
                if math.isfinite(fit) and math.isfinite(theory):
                    result.rate_rows.append(
                        (row["regime"], abs(fit - theory) / theory))
    for summary in out_dir.rglob("summary.txt"):
        value = _summary(summary).get("conservation_max")
        if value is not None:
            result.conservation_ratios.append(float(value) / tolerance)
    drift = _DRIFT.search(verdicts.get("conservation", (True, ""))[1])
    if drift:
        result.conservation_ratios.append(float(drift[1]) / float(drift[2]))


def run_pass(cli, workload, configs: dict, config_dir: Path, out_dir: Path,
             seed: int) -> Pass:
    """Run every command once into ``out_dir``; only the commands are timed."""
    outcomes = []
    start = time.perf_counter()
    for index, cmd in enumerate(workload.commands):
        target = out_dir / f"{index}_{Path(cmd.config).stem}"
        argv = [cmd.subcommand, str(config_dir / cmd.config),
                "--out", str(target)]
        if cmd.seeded:
            argv += ["--seed", str(seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:      # argparse rejected the command
                code = exc.code
            except Exception:  # a crash fails this command, not the run
                code = "exception"
                stderr.write(traceback.format_exc())
        outcomes.append((cmd, target, code, stdout.getvalue(),
                         stderr.getvalue()))
    wall = time.perf_counter() - start

    result = Pass(wall)
    for cmd, target, code, stdout, stderr in outcomes:
        check_command(cmd, configs[cmd.config], target, code, stdout, stderr,
                      result, cli.CONSERVATION_TOL)
    written = [p for p in out_dir.rglob("*") if p.is_file()]
    result.output_files = len(written)
    result.output_bytes = sum(p.stat().st_size for p in written)
    return result


def probe(script: str, *args: str) -> dict:
    """Run a probe script in a fresh interpreter; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name(script)), *args],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"{script} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(cli, workload, configs, work: Path, seed: int, seconds: float,
            tracer):
    """Warm up, then run passes for ``seconds``; traced passes alternate
    with untraced ones when a tracer is given."""
    untraced, traced, snapshots = [], [], []
    config_dir = work / "configs"

    def one(index: int, trace: bool) -> Pass:
        out_dir = work / f"pass_{index}"
        if trace:
            with tracer.installed():
                done = run_pass(cli, workload, configs, config_dir, out_dir,
                                seed)
            snapshots.append(tracer.take())
        else:
            done = run_pass(cli, workload, configs, config_dir, out_dir, seed)
        shutil.rmtree(out_dir)
        return done

    warmup = one(0, False)
    start = time.perf_counter()
    index = 1
    while (not untraced or (tracer is not None and not traced)
           or time.perf_counter() - start < seconds):
        trace = tracer is not None and index % 2 == 0
        (traced if trace else untraced).append(one(index, trace))
        index += 1
    return warmup, untraced, traced, snapshots


def tail_percentile(walls: list):
    """Highest whole percentile with at least 10 passes beyond it."""
    percent = math.floor(100 * (1 - 10 / len(walls)))
    if percent < 50:
        return None
    value = statistics.quantiles(walls, n=100, method="inclusive")[percent - 1]
    return {"percentile": percent, "wall_s": value, "passes": len(walls)}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "rdlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _worst_rate_error(passes: list) -> float:
    rows = [row for p in passes for row in p.rate_rows]
    sharp = [err for regime, err in rows if regime in SHARP_REGIMES]
    errors = sharp or [err for _, err in rows]
    return max(errors) if errors else math.nan


def end_to_end(untraced, everything, setup, memory) -> dict:
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    ratios = [r for p in everything for r in p.conservation_ratios]
    return {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "setup_s": statistics.median(s["import_s"] + s["build_s"]
                                     for s in setup),
        "cell_steps_per_s": statistics.median(p.cell_steps / p.wall_s
                                              for p in untraced),
        "peak_rss_mb": memory["peak_rss_mb"],
        "verdict_pass_fraction": 1.0 - failed / attempted,
        "rate_rel_err": _worst_rate_error(everything),
        "conservation_tol_ratio": max(ratios) if ratios else math.nan,
    }


def per_layer(untraced, traced, snapshots, step_us, setup) -> dict:
    values = {name: statistics.median(s[name] for s in snapshots)
              for name in snapshots[0]}
    if len(step_us) >= 2:
        cuts = statistics.quantiles(step_us, n=100, method="inclusive")
        values["rdsim.step_us.p50"], values["rdsim.step_us.p99"] = \
            cuts[49], cuts[98]
    else:
        values["rdsim.step_us.p50"] = values["rdsim.step_us.p99"] = 0.0
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    values["cli.output_bytes"] = statistics.median(p.output_bytes
                                                   for p in traced)
    values["cli.output_files"] = statistics.median(p.output_files
                                                   for p in traced)
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s
                                                      for p in untraced))
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchmarkError(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    cli = import_cli()
    from rdlab.config import parse_config

    work = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    config_dir = work / "configs"
    try:
        write_configs(workload, ROOT / "configs", config_dir)
        configs = {name: parse_config((config_dir / name).read_text())
                   for name in workload.configs}
        setup = [probe("setup_probe.py", str(SRC),
                       *(str(config_dir / name) for name in workload.configs))
                 for _ in range(SETUP_SAMPLES)]
        if not args.trace:
            memory = probe("rss_probe.py", workload.name, str(config_dir),
                           str(work / "memory_pass"), str(args.seed))
            memory_pass = Pass(0.0, memory["attempted"], memory["failed"],
                               memory["problems"])
        tracer = Tracer() if args.trace else None
        warmup, untraced, traced, snapshots = measure(
            cli, workload, configs, work, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = [warmup, *untraced, *traced]
    if args.trace:
        values = per_layer(untraced, traced, snapshots, tracer.step_us, setup)
        names = spec["per_layer"]
    else:
        everything.append(memory_pass)
        values = end_to_end(untraced, everything, setup, memory)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    problems = [problem for p in everything for problem in p.problems]
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):   # JSON has no NaN
            problems.append(f"{name} was not measured")
            metric["value"] = 0.0
    failed = sum(p.failed for p in everything)
    walls = [p.wall_s for p in untraced]
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "passes": len(walls),
        "pass_wall_s": walls,
        "wall_s_quartiles": (statistics.quantiles(walls, n=4)
                             if len(walls) >= 2 else walls),
        "wall_s_tail": tail_percentile(walls),
        "warmup_wall_s": warmup.wall_s,
        "setup_samples": setup,
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "problems": sorted(set(problems))[:50],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": sum(p.attempted for p in everything),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
