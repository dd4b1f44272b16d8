import csv
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rdlab
from rdlab import diffusion
from rdlab.cli import main
from rdlab.network import steady_state

ODE_CFG = """
[scenario]
kind = ode
id = ode_quick

[network]
alpha = 2 0 0
beta = 0 1 1

[initial]
species_1 = 2
species_2 = 1e-9
species_3 = 1e-9

[numerics]
t_end = 8.0
"""

RD_QUICK_CFG = """
[scenario]
kind = rd
id = rd_quick

[network]
alpha = 1 1 0 0
beta = 0 0 1 1

[diffusion]
n = 64

[initial]
species_1 = 2 + 0.4*cos(pi*x)
species_2 = 2 - 0.2*cos(2*pi*x)
species_3 = 2 + 0.3*cos(pi*x)
species_4 = 2

[numerics]
dt = 1e-3
t_end = 3.0
sample_every = 20

[output]
snapshots = 0.0 1.0
"""

GAP_CFG = """
[scenario]
kind = spectral_gap
id = gap_quick

[diffusion]
n = 100
domain_length = 1.0
refinement = 50 100 200
"""

SWEEP_CFG = """
[scenario]
kind = sweep
id = sweep_quick

[network]
alpha = 1 1 0 0
beta = 0 0 1 1

[diffusion]
n = 48

[initial]
species_1 = 1 + 0.2*cos(pi*x)
species_2 = 1
species_3 = 1 + 0.1*cos(pi*x)
species_4 = 1

[numerics]
dt = 1e-3
t_end = 2.0
sample_every = 20

[sweep]
parameter = mass_scale
values = 0.5 2.0
"""


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestVerify:
    def test_ode_verify_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ode.cfg", ODE_CFG)
        code = main(["verify", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 4
        assert "FAIL" not in out
        assert (tmp_path / "out" / "trajectory.csv").is_file()
        assert (tmp_path / "out" / "report.csv").is_file()

    def test_ode_trajectory_on_uniform_cadence(self, tmp_path, capsys):
        # The exact flow sampled every 0.08 / kappa (kappa = 4) up to t_end.
        cfg = _write(tmp_path, "ode.cfg", ODE_CFG)
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = _rows(tmp_path / "out" / "trajectory.csv")
        times = np.array([float(row[0]) for row in rows[1:]])
        assert times.size == 401 and times[-1] == 8.0
        assert np.allclose(np.diff(times), 0.02, rtol=1e-12, atol=0.0)

    def test_ode_verify_solves_its_steady_state_twice(self, tmp_path,
                                                      monkeypatch):
        # Once for parse_config's step budget and once for the run, whose
        # reduction carries the steady state and the sharp rate.
        calls = []

        def counted(*args):
            calls.append(args)
            return steady_state(*args)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rdlab"
                    and vars(module).get("steady_state") is steady_state):
                monkeypatch.setattr(module, "steady_state", counted)
        cfg = _write(tmp_path, "ode.cfg", ODE_CFG)
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2

    def test_ode_verify_of_order_three_takes_rk45(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ode3.cfg",
                     ODE_CFG.replace("alpha = 2 0 0", "alpha = 2 1 0")
                            .replace("beta = 0 1 1", "beta = 0 0 1")
                            .replace("species_2 = 1e-9", "species_2 = 1"))
        code = main(["verify", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out
        times = [float(row[0]) for row in
                 _rows(tmp_path / "out" / "trajectory.csv")[1:]]
        assert times[-1] == 8.0
        assert np.ptp(np.diff(times)) > 1e-3    # adaptive steps

    def test_rd_verify_passes_and_writes_snapshots(self, tmp_path, capsys):
        cfg = _write(tmp_path, "rd.cfg", RD_QUICK_CFG)
        code = main(["verify", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        series = _rows(tmp_path / "out" / "series.csv")
        assert series[0][0] == "t"
        assert len(series) > 5
        assert (tmp_path / "out" / "snapshot_000.csv").is_file()
        assert (tmp_path / "out" / "snapshot_001.csv").is_file()

    def test_gap_verify(self, tmp_path, capsys):
        cfg = _write(tmp_path, "gap.cfg", GAP_CFG)
        code = main(["gap", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "extrapolated" in out
        table = _rows(tmp_path / "out" / "gap.csv")
        assert table[0] == ["n", "gap_eigenvalue", "gap_constant"]
        assert len(table) == 4

    def test_sweep_writes_regime_map(self, tmp_path):
        cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
        code = main(["sweep", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        rows = _rows(tmp_path / "out" / "sweep.csv")
        assert rows[0][0] == "mass_scale"
        regimes = {row[0]: row[1] for row in rows[1:]}
        assert regimes["0.5"] == "mass_below_gap"
        assert regimes["2.0"] == "mass_above_gap"

    def test_sweep_scales_match_single_runs(self, tmp_path):
        # The batched sweep writes, for every scale, what `run` writes for
        # that scale as a stand-alone rd config.
        text = SWEEP_CFG + "\n[output]\nsnapshots = 0.0 1.0\n"
        cfg = _write(tmp_path, "sweep.cfg", text)
        assert main(["sweep", cfg, "--out", str(tmp_path / "sweep"),
                     "--quiet"]) == 0
        base = text[:text.index("[sweep]")].replace("kind = sweep", "kind = rd")
        for value in (0.5, 2.0):
            single = base
            for line in base.splitlines():
                if line.startswith("species_"):
                    key, expr = line.split(" = ")
                    single = single.replace(line, f"{key} = ({value!r})*({expr})")
            rd_cfg = _write(tmp_path, f"rd_{value}.cfg", single + text[
                text.index("[output]"):])
            out = tmp_path / f"run_{value}"
            assert main(["run", rd_cfg, "--out", str(out), "--quiet"]) == 0
            for name in ("series.csv", "snapshot_000.csv", "snapshot_001.csv"):
                assert (tmp_path / "sweep" / f"scale_{value:g}" / name
                        ).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("values", ["0.5 inf", "0.5 nan"])
    def test_sweep_rejects_non_finite_values(self, tmp_path, capsys, values):
        cfg = _write(tmp_path, "sweep.cfg",
                     SWEEP_CFG.replace("values = 0.5 2.0", f"values = {values}"))
        assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "[bad-value] sweep.values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


REPORT_KEYS = ["scenario_id", "regime", "rate_theory", "rate_fit", "fit_r2",
               "envelope_margin", "verdict"]


def _summary(path: Path):
    return [line.split(": ", 1) for line in path.read_text().splitlines()]


class TestOutputFormat:
    # report.csv repeats a subset of summary.txt, in the summary's order,
    # and a sweep.csv row is the scale's report.csv row led by the scale.
    @pytest.mark.parametrize("text, keys", [
        (ODE_CFG, ["scenario_id", "regime", "rate_theory", "rate_fit",
                   "fit_r2", "envelope_log_prefactor", "envelope_margin",
                   "verdict"]),
        (RD_QUICK_CFG, ["scenario_id", "regime", "rate_theory", "rate_fit",
                        "fit_r2", "envelope_margin", "conservation_max",
                        "min_concentration", "clamp_l1", "verdict"]),
    ], ids=["ode", "rd"])
    def test_report_is_the_summary_subset(self, tmp_path, text, keys):
        cfg = _write(tmp_path, "scenario.cfg", text)
        out = tmp_path / "out"
        assert main(["verify", cfg, "--out", str(out), "--quiet"]) == 0
        entries = _summary(out / "summary.txt")
        assert [key for key, _ in entries] == keys
        header, row = _rows(out / "report.csv")
        assert header == REPORT_KEYS
        # The summary prints booleans as Python does, the CSV in lower case.
        values = {key: {"True": "true", "False": "false"}.get(value, value)
                  for key, value in entries}
        assert row == [values[key] for key in header]

    def test_sweep_rows_are_report_rows(self, tmp_path):
        cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == 0
        header, *rows = _rows(out / "sweep.csv")
        assert header == ["mass_scale"] + REPORT_KEYS[1:]
        assert [row[0] for row in rows] == ["0.5", "2.0"]
        for row in rows:
            scale = f"{float(row[0]):g}"
            report_header, report_row = _rows(out / f"scale_{scale}"
                                              / "report.csv")
            assert report_header == REPORT_KEYS
            assert report_row[0] == f"sweep_quick_scale_{scale}"
            assert row[1:] == report_row[1:]


class TestEqualRatesBranch:
    def test_mass_tuned_to_gap_rate(self, tmp_path):
        # Constant means tuned so the total mass equals the gap rate of the
        # configured grid exactly; the report must land in the equal-rates
        # regime and the linear-prefactor envelope must still dominate.
        from rdlab.diffusion import build_generator
        level = 1.0 / (8.0 * build_generator(64).gap_constant) / 4.0
        text = f"""
[scenario]
kind = rd
id = at_gap

[network]
alpha = 1 1 0 0
beta = 0 0 1 1

[diffusion]
n = 64

[initial]
species_1 = {level!r} + 0.1*cos(pi*x)
species_2 = {level!r}
species_3 = {level!r} + 0.05*cos(pi*x)
species_4 = {level!r}

[numerics]
dt = 1e-3
t_end = 2.0
sample_every = 20
"""
        cfg = _write(tmp_path, "at_gap.cfg", text)
        assert main(["verify", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        rows = _rows(tmp_path / "out" / "report.csv")
        assert rows[1][1] == "mass_at_gap"


class TestErrorPaths:
    def test_missing_file_is_usage_error(self, capsys):
        assert main(["run", "no_such_file.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_lists_issues(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg",
                     ODE_CFG.replace("beta = 0 1 1", "beta = 2 1 1"))
        assert main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert "catalyzer-species" in err

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--dump-generator"]])
    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_gap_flags_rejected_elsewhere(self, tmp_path, capsys, command,
                                          flag):
        # Only gap draws random functions and builds a generator to dump.
        cfg = _write(tmp_path, "rd.cfg", RD_QUICK_CFG)
        with pytest.raises(SystemExit) as exc:
            main([command, cfg, *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_overflowing_rate_ratio_prints_only_the_issues(self, tmp_path):
        # Run in a fresh interpreter: a numpy warning would print to stderr.
        cfg = _write(tmp_path, "ratio.cfg", RD_QUICK_CFG.replace(
            "beta = 0 0 1 1", "beta = 0 0 1 1\nl = 1e-300\nk = 1e300"))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rdlab.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "rdlab.cli", "verify",
                               cfg, "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert lines[0] == "error: invalid config:"
        assert [line.split(":")[0] for line in lines[1:]] \
            == ["  [bad-value] network.l", "  [bad-value] network.k"]

    @pytest.mark.parametrize("command, text, line", [
        ("verify", RD_QUICK_CFG, "species_1 = 2 + 0.4*cos(pi*x)"),
        ("sweep", SWEEP_CFG, "species_1 = 1 + 0.2*cos(pi*x)"),
    ])
    def test_negative_initial_profile_is_rejected(self, tmp_path, capsys,
                                                  command, text, line):
        # Positive mean, negative near x = 1: the Scenario rejects it.
        cfg = _write(tmp_path, "negative.cfg",
                     text.replace(line, "species_1 = 0.5 + cos(pi*x)"))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "nonnegative" in lines[0]
        assert list(tmp_path.rglob("report.csv")) == []

    def test_kind_command_mismatch(self, tmp_path, capsys):
        cfg = _write(tmp_path, "gap.cfg", GAP_CFG)
        assert main(["verify", cfg]) == 2
        cfg2 = _write(tmp_path, "ode.cfg", ODE_CFG)
        assert main(["sweep", cfg2]) == 2

    def test_tail_hypothesis_violation_is_config_error(self, tmp_path, capsys):
        text = RD_QUICK_CFG.replace("alpha = 1 1 0 0", "alpha = 1 1 0") \
                           .replace("beta = 0 0 1 1", "beta = 0 2 1") \
                           .replace("species_4 = 2\n", "")
        text = text.replace("species_1 = 2 + 0.4*cos(pi*x)", "species_1 = 2") \
                   .replace("species_2 = 2 - 0.2*cos(2*pi*x)", "species_2 = 2") \
                   .replace("species_3 = 2 + 0.3*cos(pi*x)", "species_3 = 2")
        cfg = _write(tmp_path, "mixed.cfg", text)
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "one side" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, code", [
        ("9^9^9", "arithmetic-error"),
        ("exp(1000)", "non-finite-profile"),
    ])
    def test_hostile_profile_fails_fast(self, tmp_path, capsys, profile, code):
        cfg = _write(tmp_path, "hostile.cfg",
                     RD_QUICK_CFG.replace("species_4 = 2",
                                          f"species_4 = {profile}"))
        start = time.perf_counter()
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"[{code}] initial.species_4" in capsys.readouterr().err

    @pytest.mark.parametrize("line, code", [
        ("t_end = inf", "bad-value"),
        ("dt = nan", "bad-value"),
        ("t_end = 1e9", "too-many-steps"),
    ])
    def test_step_count_fails_fast(self, tmp_path, capsys, line, code):
        key = line.split(" = ")[0]
        text = RD_QUICK_CFG.replace({"t_end": "t_end = 3.0",
                                     "dt": "dt = 1e-3"}[key], line)
        cfg = _write(tmp_path, "long.cfg", text)
        start = time.perf_counter()
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"[{code}] numerics." in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("network", ["", "alpha = 2 1 0\nbeta = 0 0 1\n"],
                             ids=["exact_flow", "order_three"])
    def test_ode_step_count_fails_fast(self, tmp_path, capsys, network):
        # 5e10 samples, or RK45 steps of 0.08 / kappa, to t_end = 1e9.
        text = ODE_CFG.replace("t_end = 8.0", "t_end = 1e9")
        if network:
            text = text.replace("alpha = 2 0 0\nbeta = 0 1 1\n", network)
        cfg = _write(tmp_path, "long.cfg", text)
        start = time.perf_counter()
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "[too-many-steps] numerics.t_end" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _loaded_by_cli_import(modules) -> str:
    """Which of ``modules`` a fresh ``import rdlab.cli`` loads."""
    code = ("import sys, rdlab.cli; "
            f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(rdlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestGridScale:
    def test_import_defers_scipy(self):
        # scipy.integrate serves only the well-mixed path and the linear
        # reference, scipy.fft only DCT grids; a fresh import loads neither.
        assert _loaded_by_cli_import(("scipy.integrate", "scipy.fft")) == "[]"

    def test_import_loads_no_process_pool(self):
        # The sweep runs its scales as one batch in this process.
        assert _loaded_by_cli_import(("concurrent.futures",
                                      "multiprocessing")) == "[]"

    def test_verify_at_ten_thousand_cells_in_bounded_memory(self, tmp_path):
        # The dense design needs about 2.4 GB for its operators at this n.
        text = (Path(__file__).parent.parent / "configs"
                / "two_by_two_highmass.cfg").read_text()
        text = text.replace("n = 200", "n = 10000") \
                   .replace("t_end = 5.0", "t_end = 0.05")
        cfg = _write(tmp_path, "big.cfg", text)
        tracemalloc.start()
        try:
            code = main(["verify", cfg, "--out", str(tmp_path / "out"),
                         "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 50e6

    def test_dump_generator_above_dense_limit(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(diffusion, "DENSE_MAX_CELLS", 50)
        cfg = _write(tmp_path, "gap.cfg", GAP_CFG)
        out = tmp_path / "out"
        assert main(["gap", cfg, "--out", str(out), "--dump-generator"]) == 2
        assert "--dump-generator" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = _write(tmp_path, "rd.cfg", RD_QUICK_CFG)
        assert main(["run", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
        for name in ("series.csv", "report.csv", "snapshot_000.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_gap_seeded_outputs_identical(self, tmp_path):
        cfg = _write(tmp_path, "gap.cfg", GAP_CFG)
        assert main(["gap", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "7", "--quiet"]) == 0
        assert main(["gap", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "7", "--quiet"]) == 0
        assert (tmp_path / "a" / "gap.csv").read_bytes() \
            == (tmp_path / "b" / "gap.csv").read_bytes()

    def test_dump_generator_flag(self, tmp_path):
        cfg = _write(tmp_path, "gap.cfg", GAP_CFG)
        assert main(["gap", cfg, "--out", str(tmp_path / "out"),
                     "--dump-generator", "--quiet"]) == 0
        rows = _rows(tmp_path / "out" / "generator.csv")
        assert len(rows) == 101  # header + one row per cell
