import dataclasses

import numpy as np
import pytest

from rdlab.analysis import (DegenerateWindowError, classify_regime,
                            envelope_inputs, exponential_tail_check,
                            fit_decay_rate, fourth_moment_decay_check,
                            two_by_two_envelope)
from rdlab.diffusion import build_generator, moment4, semigroup_apply
from rdlab.network import build_network


@pytest.fixture(scope="module")
def grid200():
    return build_generator(200)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 300)
        rate, r2 = fit_decay_rate(t, np.exp(-2.467 * t))
        assert rate == pytest.approx(2.467, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_exponential(self):
        t = np.linspace(0.0, 8.0, 400)
        rate, _ = fit_decay_rate(t, np.exp(-t) * (1.0 + 0.01 * np.sin(t)))
        assert rate == pytest.approx(1.0, abs=0.02)

    def test_constant_series_degenerate(self):
        t = np.linspace(0.0, 5.0, 100)
        with pytest.raises(DegenerateWindowError):
            fit_decay_rate(t, np.ones_like(t))

    def test_all_below_floor_degenerate(self):
        t = np.linspace(0.0, 5.0, 100)
        with pytest.raises(DegenerateWindowError):
            fit_decay_rate(t, np.full_like(t, 1e-15))

    def test_floor_excludes_noise_tail(self):
        t = np.linspace(0.0, 20.0, 1000)
        noisy = np.exp(-2.0 * t) + 1e-13
        rate, _ = fit_decay_rate(t, noisy, floor=1e-10)
        assert rate == pytest.approx(2.0, rel=1e-3)


class TestEnvelope:
    def test_inputs_homogeneous_unit_data(self, two_by_two, grid200):
        # Means 1 each: total mass 4, summed field 4, quartic moment
        # sqrt(4^4) = 16, and the gap rate is about pi^2 / 4.
        v0 = np.ones((4, grid200.n_cells))
        inputs = envelope_inputs(two_by_two, grid200, v0)
        assert inputs.total_mass == pytest.approx(4.0, rel=1e-14)
        assert inputs.quartic_moment == pytest.approx(16.0, rel=1e-14)
        assert np.abs(inputs.initial_distance).max() <= 1e-12
        gap_rate = 1.0 / (8.0 * inputs.gap_constant)
        assert gap_rate == pytest.approx(np.pi**2 / 4.0, rel=1e-3)
        assert classify_regime(inputs) == "mass_above_gap"

    def test_envelope_rate_above_gap(self, two_by_two, grid200):
        v0 = np.ones((4, grid200.n_cells))
        inputs = envelope_inputs(two_by_two, grid200, v0)
        gap_rate = 1.0 / (8.0 * inputs.gap_constant)
        env = two_by_two_envelope(inputs, np.array([0.0, 1.0, 2.0]))
        measured_rate = np.log(env[0, 0] / env[1, 0])
        assert measured_rate == pytest.approx(gap_rate, rel=1e-12)
        assert measured_rate == pytest.approx(2.467, abs=2e-3)

    def test_envelope_at_zero_dominates_distance(self, two_by_two, grid200):
        x = grid200.cell_centers
        v0 = np.array([0.25 + 0.1 * np.cos(np.pi * x),
                       0.25 * np.ones_like(x),
                       0.25 * np.ones_like(x),
                       0.25 - 0.05 * np.cos(2 * np.pi * x)])
        inputs = envelope_inputs(two_by_two, grid200, v0)
        env0 = two_by_two_envelope(inputs, 0.0)
        assert env0.shape == (4,)
        assert np.all(env0 >= inputs.initial_distance)
        assert classify_regime(inputs) == "mass_below_gap"

    def test_degenerate_equality_branch(self, two_by_two, grid200):
        # Tune the constant means so the total mass hits the gap rate
        # exactly; the prefactor then grows linearly in time.
        gap_rate = 1.0 / (8.0 * grid200.gap_constant)
        level = gap_rate / 4.0
        v0 = np.full((4, grid200.n_cells), level)
        inputs = envelope_inputs(two_by_two, grid200, v0)
        assert classify_regime(inputs) == "mass_at_gap"
        t = np.array([0.0, 1.0])
        env = two_by_two_envelope(inputs, t)
        m4 = inputs.quartic_moment
        expected0 = inputs.initial_distance[0]
        expected1 = (inputs.initial_distance[0] + 5.0 * m4) \
            * np.exp(-inputs.total_mass)
        assert env[0, 0] == pytest.approx(expected0, abs=1e-12)
        assert env[1, 0] == pytest.approx(expected1, rel=1e-12)

    def test_rejects_non_two_by_two(self, self_ionization, grid200):
        with pytest.raises(ValueError, match="two-by-two"):
            envelope_inputs(self_ionization, grid200,
                            np.ones((3, grid200.n_cells)))


class TestFourthMomentCheck:
    def test_constant_function_trivial(self, grid200):
        ok, margins = fourth_moment_decay_check(grid200,
                                                np.full(grid200.n_cells, 2.0),
                                                (0.1, 1.0))
        assert ok
        assert np.all(margins >= 0.0)

    def test_gap_eigenfunction_decays_inside_envelope(self, grid200):
        # LHS built on the gap mode decays at four times the gap
        # eigenvalue, strictly faster than the bound's rate.
        e1 = grid200.eigenvectors[:, 1]
        f = 1.0 + e1 / np.abs(e1).max()
        ok, margins = fourth_moment_decay_check(grid200, f, (0.05, 0.2))
        assert ok and np.all(margins > 0.0)
        mean = grid200.weights @ f

        def centered4(t):
            g = semigroup_apply(grid200, f, t)
            return grid200.weights @ (g - mean) ** 4

        measured = np.log(centered4(0.01) / centered4(0.11)) / 0.1
        assert measured == pytest.approx(4.0 * grid200.eigenvalues[1], rel=1e-6)

    def test_random_sweep(self, grid200):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            f = rng.uniform(0.0, 2.0, grid200.n_cells)
            ok, margins = fourth_moment_decay_check(grid200, f,
                                                    (0.01, 0.1, 1.0))
            assert ok
            assert margins.min() >= 0.0

    @pytest.mark.parametrize("n", [200, 400])    # dense, DCT
    def test_stack_matches_per_function_loop(self, n):
        grid = build_generator(n)
        stack = np.random.default_rng(7).uniform(0.0, 2.0, (50, n))
        times = (0.01, 0.1, 1.0)
        ok, margins = fourth_moment_decay_check(grid, stack, times)
        assert ok and margins.shape == (50, 3)
        for f, row in zip(stack, margins):
            # Independent of the stack code: semigroup_apply per time.
            mean = grid.weights @ f
            bound = (4.0 * np.exp(-np.array(times) / (2.0 * grid.gap_constant))
                     * moment4(grid, f))
            measured = [grid.weights @ (semigroup_apply(grid, f, t) - mean) ** 4
                        for t in times]
            assert np.allclose(row, bound - measured, rtol=1e-13, atol=0.0)

    def test_stack_draw_equals_sequential_draws(self):
        # gap draws its 50 functions as one stack; the stream is unchanged.
        stack = np.random.default_rng(11).uniform(0.0, 2.0, (50, 300))
        rng = np.random.default_rng(11)
        assert np.array_equal(stack, [rng.uniform(0.0, 2.0, 300)
                                      for _ in range(50)])

    def test_stack_fails_on_one_bad_function(self, grid200):
        stack = np.ones((3, grid200.n_cells))
        stack[1, : grid200.n_cells // 2] = 2.0
        assert fourth_moment_decay_check(grid200, stack, (0.1,), slack=0.0)[0]
        # A gap constant 25 times too small shrinks the bounds by about
        # 1e-10 at t = 0.1; only the non-constant function then fails.
        squeezed = dataclasses.replace(grid200, gap_constant=2e-3)
        ok, margins = fourth_moment_decay_check(squeezed, stack, (0.1,),
                                                slack=0.0)
        assert not ok
        assert margins[1, 0] < 0.0 < min(margins[0, 0], margins[2, 0])

    def test_rejects_negative_function(self, grid200):
        f = np.ones(grid200.n_cells)
        f[0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            fourth_moment_decay_check(grid200, f, (0.1,))

    def test_moment4_of_summed_fields(self, grid200):
        rng = np.random.default_rng(3)
        v0 = rng.uniform(0.0, 1.0, (4, grid200.n_cells))
        total = v0.sum(axis=0)
        assert moment4(grid200, total) == pytest.approx(
            float(grid200.weights @ total**4), rel=1e-14)


class TestExponentialTailCheck:
    def test_accepts_clean_tail(self, self_ionization):
        t = np.linspace(0.0, 6.0, 500)
        series = 0.5 * np.exp(-4.0 * t) + 1e-14
        rate, r2, ok = exponential_tail_check(self_ionization, t, series)
        assert ok
        # The injected 1e-14 noise floor bends the deep tail slightly.
        assert rate == pytest.approx(4.0, rel=1e-3)
        assert r2 >= 0.999

    def test_rejects_shared_species(self):
        # One species appears on both sides; the one-sided hypothesis of
        # the qualitative check fails and the scenario must be refused.
        mixed = build_network([1, 1, 0], [0, 2, 1])
        t = np.linspace(0.0, 5.0, 100)
        with pytest.raises(ValueError, match="one side"):
            exponential_tail_check(mixed, t, np.exp(-t))

    def test_flags_non_exponential_tail(self, self_ionization):
        t = np.linspace(0.0, 6.0, 500)
        series = 1.0 / (1.0 + t) ** 2
        rate, r2, ok = exponential_tail_check(self_ionization, t, series)
        assert not ok

    def test_envelope_inputs_requires_matching_shape(self, two_by_two, grid200):
        with pytest.raises(ValueError, match="matrix"):
            envelope_inputs(two_by_two, grid200, np.ones((4, 7)))
