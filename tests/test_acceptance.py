"""End-to-end acceptance runs.

Each criterion prints one PASS/FAIL line (visible under ``pytest -s`` or in
the captured output of a failing run) and asserts its stated tolerance.
Module-scoped fixtures share the expensive simulations across criteria.
"""

import time

import numpy as np
import pytest

from rdlab import analysis, diffusion, kinetics, rdsim
from rdlab.network import (build_network, optimal_rate, steady_state)

PI_SQ = np.pi**2


def _report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared runs


@pytest.fixture(scope="module")
def ionization_ode():
    """Criterion 1/2 run: well-mixed self-ionization from near-empty ions."""
    net = build_network([2, 0, 0], [0, 1, 1])
    v0 = np.array([2.0, 1e-9, 1e-9])
    start = time.perf_counter()
    steady = steady_state(net, v0)
    trajectory = kinetics.integrate_reaction(net, v0, 8.0, tol=1e-10)
    rate_fit, r2 = kinetics.measure_rate(trajectory, steady)
    elapsed = time.perf_counter() - start
    return {
        "network": net, "v0": v0, "steady": steady, "trajectory": trajectory,
        "rate_fit": rate_fit, "r2": r2, "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def laplacian200():
    return diffusion.build_generator(200)


@pytest.fixture(scope="module")
def low_mass_run(laplacian200):
    """Criterion 4 run: per-species means 0.25, total mass 1 < gap rate."""
    net = build_network([1, 1, 0, 0], [0, 0, 1, 1])
    x = laplacian200.cell_centers
    v0 = np.array([
        0.25 + 0.12 * np.cos(np.pi * x),
        0.25 + 0.05 * np.cos(2.0 * np.pi * x),
        0.25 + 0.08 * np.cos(np.pi * x),
        0.25 * np.ones_like(x),
    ])
    scenario = rdsim.Scenario(network=net, diffusion=laplacian200, v0=v0,
                              dt=1e-3, t_end=20.0, sample_every=10)
    start = time.perf_counter()
    result = rdsim.run(scenario)
    elapsed = time.perf_counter() - start
    inputs = analysis.envelope_inputs(net, laplacian200, v0)
    return {"scenario": scenario, "result": result, "inputs": inputs,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def high_mass_run(laplacian200):
    """Criterion 5 run: per-species means 2, total mass 8 > gap rate."""
    net = build_network([1, 1, 0, 0], [0, 0, 1, 1])
    x = laplacian200.cell_centers
    v0 = np.array([
        2.0 + 0.5 * np.cos(np.pi * x),
        2.0 - 0.3 * np.cos(2.0 * np.pi * x),
        2.0 + 0.4 * np.cos(3.0 * np.pi * x),
        2.0 * np.ones_like(x),
    ])
    scenario = rdsim.Scenario(network=net, diffusion=laplacian200, v0=v0,
                              dt=1e-3, t_end=5.0, sample_every=10)
    result = rdsim.run(scenario)
    inputs = analysis.envelope_inputs(net, laplacian200, v0)
    return {"scenario": scenario, "result": result, "inputs": inputs}


@pytest.fixture(scope="module")
def ionization_rd_perturbed():
    """Criterion 8 run: self-ionization with diffusion, perturbed data."""
    net = build_network([2, 0, 0], [0, 1, 1])
    grid = diffusion.build_generator(150)
    x = grid.cell_centers
    v0 = np.array([
        2.0 + 0.3 * np.cos(np.pi * x),
        0.1 - 0.05 * np.cos(2.0 * np.pi * x),
        0.1 + 0.04 * np.cos(3.0 * np.pi * x),
    ])
    scenario = rdsim.Scenario(network=net, diffusion=grid, v0=v0,
                              dt=1e-3, t_end=6.0, sample_every=10)
    return {"scenario": scenario, "result": rdsim.run(scenario)}


@pytest.fixture(scope="module")
def ionization_rd_homogeneous():
    """Criterion 8 control: spatially constant data, collapses to the ODE."""
    net = build_network([2, 0, 0], [0, 1, 1])
    grid = diffusion.build_generator(50)
    v0 = np.tile(np.array([2.0, 1e-9, 1e-9])[:, None], (1, grid.n_cells))
    scenario = rdsim.Scenario(network=net, diffusion=grid, v0=v0,
                              dt=1e-3, t_end=7.0, sample_every=10)
    return {"scenario": scenario, "result": rdsim.run(scenario)}


@pytest.fixture(scope="module")
def constant_two_by_two_run():
    """Criterion 9a run: spatially constant two-by-two fields."""
    net = build_network([1, 1, 0, 0], [0, 0, 1, 1])
    grid = diffusion.build_generator(50)
    eps = 1e-9
    v0 = np.tile(np.array([2.0, 2.0, eps, eps])[:, None], (1, grid.n_cells))
    scenario = rdsim.Scenario(network=net, diffusion=grid, v0=v0,
                              dt=1e-3, t_end=2.0, sample_every=100)
    return {"scenario": scenario, "result": rdsim.run(scenario, fields=True)}


@pytest.fixture(scope="module")
def smooth_two_by_two_run():
    """Criterion 9b run: inhomogeneous two-by-two against the linear oracle."""
    net = build_network([1, 1, 0, 0], [0, 0, 1, 1])
    grid = diffusion.build_generator(100)
    x = grid.cell_centers
    v0 = np.array([
        1.0 + 0.15 * np.cos(np.pi * x),
        1.0 - 0.10 * np.cos(np.pi * x),
        1.0 + 0.10 * np.cos(np.pi * x),
        np.ones_like(x),
    ])
    scenario = rdsim.Scenario(network=net, diffusion=grid, v0=v0,
                              dt=1e-3, t_end=1.0, sample_every=100)
    return {"scenario": scenario, "result": rdsim.run(scenario, fields=True)}


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_ode_optimal_rate(ionization_ode):
    steady = ionization_ode["steady"]
    net = ionization_ode["network"]
    rate_theory = optimal_rate(net, steady)
    steady_ok = np.allclose(steady.concentrations, 2.0 / 3.0, atol=1e-8)
    theory_ok = abs(rate_theory - 4.0) <= 1e-6
    fit = ionization_ode["rate_fit"]
    fit_ok = abs(fit - 4.0) <= 0.03 * 4.0
    time_ok = ionization_ode["elapsed"] < 1.0
    _report("criterion 1 (well-mixed optimal rate)",
            steady_ok and theory_ok and fit_ok and time_ok,
            f"steady=(2/3,2/3,2/3) ok={steady_ok}, theory rate "
            f"{rate_theory:.9f}, fitted {fit:.6f} (tol 3%), "
            f"elapsed {ionization_ode['elapsed']:.2f}s (< 1s)")


def test_criterion_2_closed_form_identity(ionization_ode):
    trajectory = ionization_ode["trajectory"]
    residual = kinetics.exact_decay_residual(trajectory.reduction, trajectory)
    _report("criterion 2 (closed-form decay identity)",
            residual <= 1e-6,
            f"max relative residual {residual:.3e} (tol 1e-6)")


def test_criterion_3_spectral_gap(laplacian200):
    start = time.perf_counter()
    target = 1.0 / (2.0 * PI_SQ)
    direct_ok = abs(laplacian200.gap_constant - target) <= 1e-3 * target
    study = diffusion.refinement_study([50, 100, 200, 400])
    elapsed = time.perf_counter() - start
    order_ok = bool(np.all(np.abs(study.observed_orders - 2.0) <= 0.1))
    extrap_ok = abs(study.extrapolated_gap_constant - target) <= 1e-6 * target
    time_ok = elapsed < 5.0
    _report("criterion 3 (spectral gap)",
            direct_ok and order_ok and extrap_ok and time_ok,
            f"gap constant {laplacian200.gap_constant:.7f} vs {target:.7f} "
            f"(tol 0.1%), orders {np.round(study.observed_orders, 3)}, "
            f"elapsed {elapsed:.2f}s (< 5s)")


def test_criterion_4_low_mass_optimal_regime(low_mass_run):
    inputs = low_mass_run["inputs"]
    result = low_mass_run["result"]
    regime = analysis.classify_regime(inputs)
    rate_fit, r2 = analysis.fit_decay_rate(result.times,
                                           result.distances[:, 0],
                                           floor=1e-10)
    rate_ok = abs(rate_fit - inputs.total_mass) <= 0.10 * inputs.total_mass
    envelope = analysis.two_by_two_envelope(inputs, result.times)
    dominated = bool(np.all(result.distances <= envelope * (1.0 + 1e-6)))
    time_ok = low_mass_run["elapsed"] < 30.0
    _report("criterion 4 (mass below gap: optimal rate)",
            regime == "mass_below_gap" and rate_ok and dominated and time_ok,
            f"regime {regime}, mass {inputs.total_mass:.6f}, fitted "
            f"{rate_fit:.6f} (tol 10%), r2 {r2:.6f}, dominated={dominated}, "
            f"elapsed {low_mass_run['elapsed']:.2f}s (< 30s)")


def test_criterion_5_high_mass_domination(high_mass_run):
    inputs = high_mass_run["inputs"]
    result = high_mass_run["result"]
    regime = analysis.classify_regime(inputs)
    gap_rate = 1.0 / (8.0 * inputs.gap_constant)
    envelope = analysis.two_by_two_envelope(inputs, result.times)
    dominated = bool(np.all(result.distances <= envelope * (1.0 + 1e-6)))
    rate_ok = abs(gap_rate - PI_SQ / 4.0) <= 1e-3 * PI_SQ / 4.0
    _report("criterion 5 (mass above gap: envelope domination)",
            regime == "mass_above_gap" and dominated and rate_ok,
            f"regime {regime}, envelope rate {min(inputs.total_mass, gap_rate):.6f}"
            f" (= gap rate {gap_rate:.6f}), dominated={dominated}")


def test_criterion_6_fourth_moment_sweep(laplacian200):
    rng = np.random.default_rng(20260810)
    worst = np.inf
    all_ok = True
    for _ in range(50):
        f = rng.uniform(0.0, 2.0, laplacian200.n_cells)
        ok, margins = analysis.fourth_moment_decay_check(
            laplacian200, f, (0.01, 0.1, 1.0))
        all_ok = all_ok and ok and margins.min() >= 0.0
        worst = min(worst, float(margins.min()))
    _report("criterion 6 (fourth-moment decay sweep)",
            all_ok, f"50 random nonnegative functions, min margin {worst:.3e}")


def test_criterion_7_conservation_positivity(low_mass_run, high_mass_run,
                                             ionization_rd_perturbed,
                                             ionization_rd_homogeneous,
                                             constant_two_by_two_run,
                                             smooth_two_by_two_run):
    suite = {
        "low_mass": low_mass_run["result"],
        "high_mass": high_mass_run["result"],
        "ionization_perturbed": ionization_rd_perturbed["result"],
        "ionization_homogeneous": ionization_rd_homogeneous["result"],
        "constant_two_by_two": constant_two_by_two_run["result"],
        "smooth_two_by_two": smooth_two_by_two_run["result"],
    }
    worst_cons = worst_clamp = -np.inf
    worst_min = np.inf
    all_ok = True
    for name, result in suite.items():
        cons = float(max(result.conservation.max(),
                         result.mean_conservation.max()))
        vmin = float(result.min_value.min())
        clamp = float(result.clamp_l1[-1])
        ok = cons <= 1e-8 and vmin >= -1e-9 and clamp <= 1e-8
        all_ok = all_ok and ok
        worst_cons = max(worst_cons, cons)
        worst_min = min(worst_min, vmin)
        worst_clamp = max(worst_clamp, clamp)

    # Clamp refinement on a zero-touching scenario.
    net = build_network([2, 0, 0], [0, 1, 1])
    grid = diffusion.build_generator(100)
    x = grid.cell_centers
    v0 = np.array([1.5 + 0.5 * np.cos(np.pi * x),
                   0.5 * (1.0 + np.cos(2.0 * np.pi * x)),
                   0.3 * (1.0 - np.cos(2.0 * np.pi * x))])

    def clamp_at(dt):
        scenario = rdsim.Scenario(network=net, diffusion=grid, v0=v0, dt=dt,
                                  t_end=0.5, sample_every=10**9)
        return float(rdsim.run(scenario).clamp_l1[-1])

    coarse, fine = clamp_at(1e-3), clamp_at(5e-4)
    halving_ok = fine <= coarse / 4.0 + 1e-15
    _report("criterion 7 (conservation, positivity, clamping)",
            all_ok and halving_ok,
            f"max residual {worst_cons:.3e} (tol 1e-8), min concentration "
            f"{worst_min:.3e} (tol -1e-9), max clamp {worst_clamp:.3e}, "
            f"clamp dt/2 {fine:.3e} <= clamp/4 + 1e-15 of {coarse:.3e}")


def test_criterion_8_general_decay(ionization_rd_perturbed,
                                   ionization_rd_homogeneous,
                                   ionization_ode):
    perturbed = ionization_rd_perturbed["result"]
    net = ionization_rd_perturbed["scenario"].network
    rate, r2, tail_ok = analysis.exponential_tail_check(
        net, perturbed.times, perturbed.distances[:, 0])

    control = ionization_rd_homogeneous["result"]
    control_rate, _ = analysis.fit_decay_rate(control.times,
                                              control.distances[:, 0],
                                              floor=1e-10)
    ode_rate = ionization_ode["rate_fit"]
    control_ok = abs(control_rate - ode_rate) <= 0.03 * ode_rate
    _report("criterion 8 (general network: qualitative exponential decay)",
            tail_ok and rate > 0 and r2 >= 0.999 and control_ok,
            f"perturbed tail rate {rate:.6f} (> 0), r2 {r2:.6f} (>= 0.999); "
            f"homogeneous control {control_rate:.6f} vs well-mixed "
            f"{ode_rate:.6f} (tol 3%)")


def test_criterion_9_oracle_equivalence(constant_two_by_two_run,
                                        smooth_two_by_two_run):
    const = constant_two_by_two_run["result"]
    net = constant_two_by_two_run["scenario"].network
    eps = 1e-9
    reference = kinetics.integrate_reaction(
        net, np.array([2.0, 2.0, eps, eps]), float(const.times[-1]),
        tol=1e-12, t_eval=const.times, max_step=1e-3)
    ode_gap = float(np.abs(const.fields
                           - reference.states[:, :, None]).max())

    smooth = smooth_two_by_two_run["result"]
    scenario = smooth_two_by_two_run["scenario"]
    linear = rdsim.linear_reference(scenario, smooth.times)
    weights = scenario.diffusion.weights
    linear_gap = float(np.sqrt(
        (((smooth.fields[:, 0, :] - linear) ** 2) @ weights).max()))
    _report("criterion 9 (independent oracle equivalence)",
            ode_gap <= 1e-6 and linear_gap <= 1e-6,
            f"constant fields vs scalar solver {ode_gap:.3e} (tol 1e-6); "
            f"split nonlinear vs linear oracle {linear_gap:.3e} (tol 1e-6)")
