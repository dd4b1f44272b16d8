import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import polynomial as npoly

from rdlab.kinetics import (Trajectory, envelope_constant, exact_decay_residual,
                            exact_trajectory, integrate_reaction, measure_rate,
                            pivot_reduction)
from rdlab.network import conservation_basis, optimal_rate, steady_state

from conftest import random_low_order_network, random_network


class TestPivotReduction:
    def test_two_by_two_unit_data(self, two_by_two):
        red = pivot_reduction(two_by_two, np.ones(4))
        assert red.pivot in (2, 3)
        # Offsets tie each species to the pivot: 2 for the consumed pair,
        # 0 for the produced pair; the rate polynomial collapses to 4 - 4X.
        assert np.allclose(np.sort(red.offsets), [0.0, 0.0, 2.0, 2.0])
        assert red.fixed_point == pytest.approx(1.0, abs=1e-12)
        q_at_root = npoly.polyval(red.fixed_point, red.cofactor_coeffs)
        assert q_at_root == pytest.approx(-4.0, rel=1e-12)

    def test_self_ionization_near_empty(self, self_ionization):
        eps = 1e-9
        red = pivot_reduction(self_ionization, np.array([2.0, eps, eps]))
        assert red.pivot in (1, 2)
        assert red.fixed_point == pytest.approx(2.0 / 3.0, abs=1e-8)
        ss = steady_state(self_ionization, [2.0, eps, eps])
        rate = optimal_rate(self_ionization, ss)
        q_at_root = npoly.polyval(red.fixed_point, red.cofactor_coeffs)
        assert q_at_root == pytest.approx(-rate, rel=1e-9)

    def test_rate_polynomial_root_is_steady_value(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            net = random_network(rng)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            red = pivot_reduction(net, v0)
            ss = steady_state(net, v0)
            assert red.fixed_point == pytest.approx(
                ss.concentrations[red.pivot], rel=1e-9)
            # Residual of the expanded polynomial at its root, scaled by the
            # monomial magnitudes entering the evaluation.
            powers = red.fixed_point ** np.arange(red.rhs_coeffs.size)
            scale = max(float(np.abs(red.rhs_coeffs * powers).sum()), 1.0)
            value = npoly.polyval(red.fixed_point, red.rhs_coeffs)
            assert abs(value) <= 1e-10 * scale

    def test_derivative_identity_with_optimal_rate(self):
        # F'(s) = Q(s) must equal minus the sharp decay constant.
        rng = np.random.default_rng(29)
        for _ in range(50):
            net = random_network(rng)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            red = pivot_reduction(net, v0)
            rate = optimal_rate(net, steady_state(net, v0))
            q_at_root = npoly.polyval(red.fixed_point, red.cofactor_coeffs)
            d_at_root = npoly.polyval(red.fixed_point,
                                      npoly.polyder(red.rhs_coeffs))
            # Expanded high-degree coefficients cancel; a few digits go.
            assert q_at_root == pytest.approx(-rate, rel=1e-6)
            assert d_at_root == pytest.approx(q_at_root, rel=1e-6)

    def test_cofactor_negative_on_window(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            net = random_network(rng)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            red = pivot_reduction(net, v0)
            upper = red.upper_bound if np.isfinite(red.upper_bound) \
                else 10.0 * red.fixed_point
            # Open 1000-point grid: the cofactor may legitimately vanish AT
            # the endpoints (shared monomial factors), never inside.
            grid = np.linspace(0.0, upper, 1002)[1:-1]
            assert np.all(npoly.polyval(grid, red.cofactor_coeffs) < 0)

    def test_rejects_nonpositive_data(self, two_by_two):
        with pytest.raises(ValueError, match="positive"):
            pivot_reduction(two_by_two, [1.0, 1.0, 0.0, 1.0])


class TestIntegrate:
    def test_steady_data_stays_fixed(self, two_by_two):
        trajectory = integrate_reaction(two_by_two, np.ones(4), 2.0)
        assert np.abs(trajectory.states - 1.0).max() <= 1e-12

    def test_monotone_and_bounded(self, two_by_two):
        eps = 1e-9
        v0 = np.array([2.0, 2.0, eps, eps])
        trajectory = integrate_reaction(two_by_two, v0, 6.0)
        red = trajectory.reduction
        pivot_vals = trajectory.pivot_series
        assert np.all(pivot_vals > 0.0)
        assert np.all(pivot_vals < red.upper_bound)
        gaps = pivot_vals - red.fixed_point
        assert np.all(gaps[0] * gaps >= -1e-15)
        assert np.all(np.diff(np.abs(gaps)) <= 1e-12)
        # Species 0 decreases toward its steady value from above.
        ss = steady_state(two_by_two, v0)
        assert np.all(np.diff(trajectory.states[:, 0]) <= 1e-12)
        assert trajectory.states[-1, 0] >= ss.concentrations[0] - 1e-9

    def test_conservation_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            net = random_network(rng)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            # Horizon scaled to the decay time: random high-degree networks
            # can be orders of magnitude faster than unit-rate ones.
            rate = optimal_rate(net, steady_state(net, v0))
            trajectory = integrate_reaction(net, v0, 20.0 / rate)
            basis = conservation_basis(net)
            drift = basis @ (trajectory.states.T - v0[:, None])
            assert np.abs(drift).max() <= 1e-13 * max(1.0, np.abs(v0).max())

    def test_rejects_bad_horizon(self, two_by_two):
        with pytest.raises(ValueError, match="positive"):
            integrate_reaction(two_by_two, np.ones(4), 0.0)


class TestExactTrajectory:
    @given(st.integers(0, 2**32 - 1))
    def test_matches_rk45(self, seed):
        rng = np.random.default_rng(seed)
        net = random_low_order_network(rng)
        v0 = rng.uniform(0.2, 2.0, net.n_species)
        rate = optimal_rate(net, steady_state(net, v0))
        exact = exact_trajectory(net, v0, 10.0 / rate)
        reference = integrate_reaction(net, v0, exact.times[-1], tol=1e-12,
                                       t_eval=exact.times)
        assert np.array_equal(reference.times, exact.times)
        assert exact.pivot == reference.pivot
        assert np.abs(exact.states - reference.states).max() \
            <= 1e-9 * max(1.0, v0.max())

    def test_uniform_cadence_on_shipped_data(self, self_ionization):
        # kappa = 4 (1 + eps): 400 steps of 0.08 / kappa to t_end = 8.
        v0 = np.array([2.0, 1e-9, 1e-9])
        trajectory = exact_trajectory(self_ionization, v0, 8.0)
        assert trajectory.times.size == 401
        assert trajectory.times[-1] == 8.0
        assert np.allclose(np.diff(trajectory.times), 0.02, rtol=1e-12,
                           atol=0.0)
        assert np.array_equal(trajectory.states[0], v0)
        drift = conservation_basis(self_ionization) @ (
            trajectory.states.T - v0[:, None])
        assert np.abs(drift).max() <= 2e-16
        rate, _ = measure_rate(trajectory, steady_state(self_ionization, v0))
        assert rate == pytest.approx(4.0, rel=1e-5)

    def test_rejects_order_above_two(self, order_three):
        with pytest.raises(ValueError, match="order"):
            exact_trajectory(order_three, np.ones(3), 1.0)

    def test_step_budget_fails_before_allocating(self, self_ionization,
                                                 order_three):
        # 5e10 samples or RK45 steps; neither run may start.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget"):
            exact_trajectory(self_ionization, np.array([2.0, 1e-9, 1e-9]),
                             1e9)
        with pytest.raises(ValueError, match="budget"):
            integrate_reaction(order_three, np.ones(3), 1e9)
        with pytest.raises(ValueError, match="budget"):
            integrate_reaction(order_three, np.ones(3), 1.0, max_step=1e-9)
        assert time.perf_counter() - start < 1.0


class TestEnvelope:
    def test_zero_at_fixed_point(self, two_by_two):
        red = pivot_reduction(two_by_two, np.ones(4))
        start = np.ones(4)
        start[red.pivot] = red.fixed_point
        assert envelope_constant(red, start) == 0.0

    def test_envelope_dominates_trajectory(self, two_by_two):
        eps = 1e-9
        v0 = np.array([2.0, 2.0, eps, eps])
        trajectory = integrate_reaction(two_by_two, v0, 6.0)
        red = trajectory.reduction
        log_prefactor = envelope_constant(red, v0)
        assert np.isfinite(log_prefactor)
        rate = -npoly.polyval(red.fixed_point, red.cofactor_coeffs)
        gap = np.abs(trajectory.pivot_series - red.fixed_point)
        bound = (np.exp(abs(log_prefactor)) * gap[0]
                 * np.exp(-rate * trajectory.times))
        # With v0 = (2, 2, eps, eps) the rate polynomial is linear, the
        # log prefactor vanishes, and the bound is an exact equality; the
        # slack absorbs the integrator's relative accuracy.
        resolved = gap > 1e-12
        assert np.all(gap[resolved] <= bound[resolved] * (1.0 + 2e-6))

    def test_closed_form_identity(self, self_ionization):
        # Strongest oracle: the measured distance must match the exact
        # exponential-of-quadrature expression along the whole trajectory.
        eps = 1e-9
        v0 = np.array([2.0, eps, eps])
        trajectory = integrate_reaction(self_ionization, v0, 8.0)
        residual = exact_decay_residual(trajectory.reduction, trajectory)
        assert residual <= 1e-6

    def test_closed_form_identity_random(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            net = random_network(rng, unit_rates=True)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            red = pivot_reduction(net, v0)
            if abs(v0[red.pivot] - red.fixed_point) < 1e-2:
                continue
            rate = -npoly.polyval(red.fixed_point, red.cofactor_coeffs)
            trajectory = integrate_reaction(net, v0, 25.0 / rate)
            assert exact_decay_residual(red, trajectory) <= 1e-6


class TestMeasureRate:
    def test_synthetic_exponential(self, two_by_two):
        # Hand-built trajectory decaying at exactly 3.
        ss = steady_state(two_by_two, np.ones(4))
        times = np.linspace(0.0, 10.0, 400)
        states = np.ones((times.size, 4))
        states[:, 2] += np.exp(-3.0 * times)
        trajectory = Trajectory(times=times, states=states, pivot=2,
                                reduction=None)
        # Keep the floor high enough that (1 + x) - 1 cancellation in the
        # synthetic states cannot bend the slope.
        rate, r2 = measure_rate(trajectory, ss, floor=1e-6)
        assert rate == pytest.approx(3.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_range_rejected(self, two_by_two):
        ss = steady_state(two_by_two, np.ones(4))
        times = np.linspace(0.0, 0.1, 50)
        states = np.ones((times.size, 4))
        states[:, 2] += np.exp(-3.0 * times)
        trajectory = Trajectory(times=times, states=states, pivot=2,
                                reduction=None)
        with pytest.raises(ValueError, match="dynamic range"):
            measure_rate(trajectory, ss)

    def test_fitted_rate_matches_theory_random(self):
        # The measured tail rate approaches the sharp constant as the
        # horizon grows, across random small networks.
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 12:
            net = random_network(rng)
            v0 = rng.uniform(0.5, 2.0, net.n_species)
            red = pivot_reduction(net, v0)
            if abs(v0[red.pivot] - red.fixed_point) < 1e-2:
                continue
            ss = steady_state(net, v0)
            rate_theory = optimal_rate(net, ss)
            trajectory = integrate_reaction(net, v0, 30.0 / rate_theory)
            # Floor above the steady-state solver's own tolerance so the
            # tail samples are unbiased.
            rate_fit, _ = measure_rate(trajectory, ss, floor=1e-10)
            assert abs(rate_fit - rate_theory) <= 0.03 * rate_theory
            checked += 1
