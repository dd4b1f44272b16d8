import numpy as np
import pytest

from conftest import random_network
from rdlab.diffusion import (DCT_MIN_CELLS, CosineBasis, build_generator,
                             semigroup_apply)
from rdlab.kinetics import integrate_reaction
from rdlab import rdsim
from rdlab.network import steady_state
from rdlab.rdsim import (BlowUpError, FieldState, Scenario, clamped_mass_action,
                         linear_reference, run, run_batch, step)


@pytest.fixture(scope="module")
def grid50():
    return build_generator(50)


@pytest.fixture(scope="module")
def grid100():
    return build_generator(100)


def _smooth_two_by_two(diff, amplitude=0.15):
    x = diff.cell_centers
    return np.array([
        1.0 + amplitude * np.cos(np.pi * x),
        1.0 - (2.0 / 3.0) * amplitude * np.cos(np.pi * x),
        1.0 + (2.0 / 3.0) * amplitude * np.cos(np.pi * x),
        np.ones_like(x),
    ])


class TestScenarioValidation:
    def test_rejects_negative_initial(self, two_by_two, grid50):
        v0 = np.ones((4, 50))
        v0[0, 3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            Scenario(network=two_by_two, diffusion=grid50, v0=v0, dt=1e-3,
                     t_end=1.0)

    def test_rejects_zero_mean_species(self, two_by_two, grid50):
        v0 = np.ones((4, 50))
        v0[1] = 0.0
        with pytest.raises(ValueError, match="positive initial mean"):
            Scenario(network=two_by_two, diffusion=grid50, v0=v0, dt=1e-3,
                     t_end=1.0)

    def test_rejects_bad_shapes_and_steps(self, two_by_two, grid50):
        with pytest.raises(ValueError, match="shape"):
            Scenario(network=two_by_two, diffusion=grid50, v0=np.ones((3, 50)),
                     dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="dt"):
            Scenario(network=two_by_two, diffusion=grid50,
                     v0=np.ones((4, 50)), dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="finite"):
            Scenario(network=two_by_two, diffusion=grid50,
                     v0=np.full((4, 50), np.inf), dt=1e-3, t_end=1.0)

    @pytest.mark.parametrize("dt, t_end", [(np.inf, 1.0), (np.nan, 1.0),
                                           (1e-3, np.inf), (1e-3, np.nan)])
    def test_rejects_non_finite_steps(self, two_by_two, grid50, dt, t_end):
        with pytest.raises(ValueError, match="finite"):
            Scenario(network=two_by_two, diffusion=grid50,
                     v0=np.ones((4, 50)), dt=dt, t_end=t_end)


class TestClampedMassAction:
    def test_matches_plain_product_on_positive_data(self, two_by_two):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.1, 2.0, (4, 30))
        expected = v[0] * v[1] - v[2] * v[3]
        assert np.allclose(clamped_mass_action(two_by_two, v), expected,
                           rtol=1e-14)

    def test_negative_parts_ignored(self, two_by_two):
        v = np.array([[-1.0], [2.0], [0.5], [0.5]])
        assert clamped_mass_action(two_by_two, v)[0] == -0.25

    def test_bitwise_equal_to_per_species_loop(self):
        def per_species_loop(network, v):
            vp = np.maximum(v, 0.0)
            forward = np.ones(v.shape[1:])
            backward = np.ones(v.shape[1:])
            for i in range(network.n_species):
                if network.reactants[i]:
                    forward = forward * vp[i] ** int(network.reactants[i])
                if network.products[i]:
                    backward = backward * vp[i] ** int(network.products[i])
            return forward - backward

        rng = np.random.default_rng(20)
        for _ in range(60):
            network = random_network(rng, coeff_max=3)
            v = rng.uniform(-0.5, 2.5, (network.n_species, 41))
            v[:, :3] = 0.0
            assert np.array_equal(clamped_mass_action(network, v),
                                  per_species_loop(network, v))


class TestStep:
    def test_steady_state_is_fixed_point(self, two_by_two, grid50):
        v0 = np.ones((4, 50))
        scenario = Scenario(network=two_by_two, diffusion=grid50, v0=v0,
                            dt=1e-3, t_end=0.1)
        state = scenario.initial_state()
        for _ in range(100):
            state = step(state, scenario)
        assert np.abs(state.v - 1.0).max() <= 1e-12
        assert state.clamp_l1 == 0.0

    def test_clamp_records_negative_mass(self, two_by_two, grid50):
        # Step so short that the half-step diffusion cannot erase the
        # injected undershoot before the clamp point.
        v0 = np.ones((4, 50))
        scenario = Scenario(network=two_by_two, diffusion=grid50, v0=v0,
                            dt=1e-9, t_end=1e-8)
        dirty = np.ones((4, 50))
        dirty[2, 7] = -0.01
        state = step(FieldState(t=0.0, v=dirty, clamp_l1=0.0), scenario)
        assert state.clamp_l1 > 0.0
        assert state.v.min() >= -1e-15
        # Removed mass is about the weighted magnitude of the injected dip.
        assert state.clamp_l1 == pytest.approx(0.01 * grid50.weights[7], rel=0.1)

    def test_blowup_guard(self, two_by_two, grid50):
        v0 = np.ones((4, 50))
        scenario = Scenario(network=two_by_two, diffusion=grid50, v0=v0,
                            dt=1e-3, t_end=0.1)
        huge = np.full((4, 50), 2e7)
        with pytest.raises(BlowUpError):
            step(FieldState(t=0.0, v=huge, clamp_l1=0.0), scenario)


class TestRunAgainstOracles:
    def test_constant_fields_match_scalar_solver(self, two_by_two, grid50):
        eps = 1e-9
        v0 = np.tile(np.array([2.0, 2.0, eps, eps])[:, None], (1, 50))
        scenario = Scenario(network=two_by_two, diffusion=grid50, v0=v0,
                            dt=1e-3, t_end=2.0, sample_every=100)
        result = run(scenario, fields=True)
        reference = integrate_reaction(two_by_two, np.array([2.0, 2.0, eps, eps]),
                                       2.0, tol=1e-12, t_eval=result.times,
                                       max_step=1e-3)
        gap = np.abs(result.fields - reference.states[:, :, None]).max()
        assert gap <= 1e-6

    def test_linear_reference_two_by_two(self, two_by_two, grid100):
        scenario = Scenario(network=two_by_two, diffusion=grid100,
                            v0=_smooth_two_by_two(grid100), dt=1e-3,
                            t_end=1.0, sample_every=100)
        result = run(scenario, fields=True)
        reference = linear_reference(scenario, result.times)
        weighted = ((result.fields[:, 0, :] - reference) ** 2) @ grid100.weights
        assert np.sqrt(weighted.max()) <= 1e-6

    def test_conserved_combination_diffuses_freely(self, two_by_two, grid100):
        # Species difference v0 - v1 is conserved by the kinetics, so it must
        # track the freely diffused image of its initial profile.
        scenario = Scenario(network=two_by_two, diffusion=grid100,
                            v0=_smooth_two_by_two(grid100), dt=1e-3,
                            t_end=1.0, sample_every=50)
        result = run(scenario, fields=True)
        for t, field in zip(result.times, result.fields):
            expected = semigroup_apply(grid100,
                                       scenario.v0[0] - scenario.v0[1], float(t))
            measured = field[0] - field[1]
            err = np.sqrt(((measured - expected) ** 2) @ grid100.weights)
            assert err <= 1e-8
        assert result.conservation.max() <= 1e-8
        assert result.mean_conservation.max() <= 1e-8

    def test_pure_diffusion_is_exactly_linear(self, two_by_two, grid50):
        scenario = Scenario(network=two_by_two, diffusion=grid50,
                            v0=_smooth_two_by_two(grid50), dt=1e-3,
                            t_end=0.5, sample_every=50, include_reaction=False)
        result = run(scenario, fields=True)
        assert result.conservation.max() <= 1e-12
        assert result.mean_conservation.max() <= 1e-12
        # Every species (not only conserved combinations) diffuses freely.
        for t, field in zip(result.times, result.fields):
            expected = semigroup_apply(grid50, scenario.v0.T, float(t)).T
            assert np.abs(field - expected).max() <= 1e-10

    def test_zero_combination_trivially_conserved(self, grid50):
        zero = np.zeros(grid50.n_cells)
        assert np.abs(semigroup_apply(grid50, zero, 1.0)).max() == 0.0

    def test_splitting_is_second_order(self, two_by_two, grid50):
        v0 = _smooth_two_by_two(grid50)

        def final_field(dt):
            scenario = Scenario(network=two_by_two, diffusion=grid50, v0=v0,
                                dt=dt, t_end=0.5, sample_every=10**9)
            return run(scenario, fields=True).fields[-1]

        reference = final_field(5e-4)
        coarse = np.abs(final_field(4e-3) - reference).max()
        fine = np.abs(final_field(2e-3) - reference).max()
        assert coarse / fine == pytest.approx(4.0, rel=0.4)

    def test_upper_bounds_and_positivity(self, self_ionization, grid100):
        x = grid100.cell_centers
        v0 = np.array([1.5 + 0.5 * np.cos(np.pi * x),
                       0.5 * (1.0 + np.cos(2.0 * np.pi * x)),
                       0.3 * (1.0 - np.cos(2.0 * np.pi * x))])
        scenario = Scenario(network=self_ionization, diffusion=grid100, v0=v0,
                            dt=1e-3, t_end=1.0, sample_every=20)
        result = run(scenario)
        assert result.bound_margin.min() >= -1e-7
        assert result.min_value.min() >= -1e-9
        assert result.clamp_l1[-1] <= 1e-8

    def test_clamp_shrinks_under_refinement(self, order_three, grid100):
        # 2A + B <-> C keeps the RK4 substep.  With this much A, B reacts
        # at a rate a^2 of up to 3600, so dt = 1e-3 is past RK4's stability
        # limit (2.79 / rate) and clamps; halving dt resolves the kinetics.
        x = grid100.cell_centers
        v0 = np.array([30.0 * (1.5 + 0.5 * np.cos(np.pi * x)),
                       0.5 * (1.0 + np.cos(2.0 * np.pi * x)),
                       0.3 * (1.0 - np.cos(2.0 * np.pi * x))])

        def clamp_at(dt):
            scenario = Scenario(network=order_three, diffusion=grid100,
                                v0=v0, dt=dt, t_end=0.5, sample_every=10**9)
            return run(scenario).clamp_l1[-1]

        unresolved = clamp_at(1e-3)
        coarse = clamp_at(5e-4)
        fine = clamp_at(2.5e-4)
        assert unresolved > 0.0
        assert coarse <= unresolved / 4.0
        assert coarse <= 1e-8
        # Once resolved, halving dt cuts any clamped mass by far more than
        # 4x; the additive term covers exact zeros.
        assert fine <= coarse / 4.0 + 1e-15

    def test_snapshots_recorded(self, two_by_two, grid50):
        scenario = Scenario(network=two_by_two, diffusion=grid50,
                            v0=_smooth_two_by_two(grid50), dt=1e-3,
                            t_end=0.2, sample_every=10)
        result = run(scenario, snapshot_times=(0.0, 0.1))
        assert len(result.snapshots) == 2
        assert result.snapshots[0][0] == 0.0
        assert result.snapshots[1][0] == pytest.approx(0.1, abs=1e-2)

    def test_steady_from_weighted_means(self, two_by_two, grid100):
        scenario = Scenario(network=two_by_two, diffusion=grid100,
                            v0=_smooth_two_by_two(grid100), dt=1e-3, t_end=0.1)
        means = scenario.v0 @ grid100.weights
        expected = steady_state(two_by_two, means)
        assert np.allclose(scenario.steady.concentrations,
                           expected.concentrations, rtol=1e-12)


def _stepped_reference(scenario):
    """Unfused reference: iterate ``step`` and recompute every diagnostic."""
    diff = scenario.diffusion
    weights = diff.weights
    network = scenario.network
    w = network.signed_rates
    combos0 = scenario.basis @ scenario.v0
    steady = scenario.steady.concentrations

    def record(state):
        v = state.v
        dist = np.sqrt(((v - steady[:, None]) ** 2) @ weights)
        refs = semigroup_apply(diff, combos0.T, state.t).T
        resid = np.sqrt(((scenario.basis @ v - refs) ** 2) @ weights)
        margin = np.inf
        for i in range(network.n_species):
            profiles = np.array([scenario.v0[i] / w[i] - scenario.v0[j] / w[j]
                                 for j in range(network.n_species)
                                 if w[i] * w[j] < 0]).T
            bound = (w[i] * semigroup_apply(diff, profiles, state.t)).min(axis=1)
            margin = min(margin, float((bound - v[i]).min()))
        return state.t, v, dist, resid, state.clamp_l1, margin

    n_steps = int(round(scenario.t_end / scenario.dt))
    state = scenario.initial_state()
    rows = [record(state)]
    for k in range(1, n_steps + 1):
        state = step(state, scenario)
        if k % scenario.sample_every == 0 or k == n_steps:
            rows.append(record(state))
    return [np.array(column) for column in zip(*rows)]


_FUSED_CASES = [
    ("two_by_two", 1.0, 1e-3, 47, 10, True),
    ("two_by_two", 1.0, 1e-3, 30, 7, False),
    ("order_three", 3.0, 0.1, 20, 3, True),      # RK4 clamps every few steps
    ("self_ionization", 1.0, 1e-3, 25, 1, True),
    ("self_ionization", 1.0, 2e-3, 40, 40, True),
]


def _check_run_matches_step_loop(network, grid, scale, dt, n_steps, every,
                                 reaction):
    x = grid.cell_centers
    base = np.array([1.0, 1.0, 0.05, 0.05][:network.n_species])
    v0 = scale * base[:, None] * (1.0 + 0.5 * np.cos(np.pi * x))
    v0[0] += 0.3 * scale * np.cos(2.0 * np.pi * x) ** 2
    scenario = Scenario(network=network, diffusion=grid, v0=v0, dt=dt,
                        t_end=n_steps * dt, sample_every=every,
                        include_reaction=reaction)
    result = run(scenario, fields=True)
    times, fields, dist, resid, clamp, margin = _stepped_reference(scenario)

    assert np.array_equal(result.times, times)
    if scale > 1.0:
        assert clamp[-1] > 0.0
    roundoff = 1e-12 * np.abs(fields).max()
    for got, want in ((result.fields, fields), (result.distances, dist),
                      (result.conservation, resid),
                      (result.clamp_l1, clamp),
                      (result.bound_margin, margin)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= roundoff


class TestFusedRun:
    @pytest.mark.parametrize("name, scale, dt, n_steps, every, reaction",
                             _FUSED_CASES)
    def test_matches_step_loop(self, request, grid50, name, scale, dt,
                               n_steps, every, reaction):
        _check_run_matches_step_loop(request.getfixturevalue(name), grid50,
                                     scale, dt, n_steps, every, reaction)

    @pytest.mark.parametrize("name, scale, dt, n_steps, every, reaction",
                             _FUSED_CASES)
    def test_matches_step_loop_on_dct_grid(self, request, name, scale, dt,
                                           n_steps, every, reaction):
        grid = build_generator(DCT_MIN_CELLS)
        assert isinstance(grid.basis, CosineBasis)
        _check_run_matches_step_loop(request.getfixturevalue(name), grid,
                                     scale, dt, n_steps, every, reaction)

    def test_blowup_raised_by_run(self, order_three, grid50):
        # dt far beyond the RK4 stability limit of the fast kinetics.
        v0 = np.array([30.0, 1.0, 1.0])[:, None] * np.ones((3, 50))
        scenario = Scenario(network=order_three, diffusion=grid50, v0=v0,
                            dt=0.1, t_end=2.5)
        with pytest.raises(BlowUpError):
            run(scenario)

    @pytest.mark.parametrize("bad", [np.nan, 2e6])
    def test_blowup_guard_after_substep(self, two_by_two, grid50,
                                        monkeypatch, bad):
        def substep(network, v, dt, weights):
            v = v.copy()
            v[1, 3] = bad
            return v, None

        monkeypatch.setattr(rdsim, "_reaction_substep", substep)
        scenario = Scenario(network=two_by_two, diffusion=grid50,
                            v0=np.ones((4, 50)), dt=1e-3, t_end=0.01)
        with pytest.raises(BlowUpError, match="t=0.001"):
            run(scenario)

    def test_dct_run_keeps_conserved_means(self, two_by_two):
        # The full step diffuses u - <u> and adds the mean back; a plain
        # DCT round trip drifts the means by about 1.2e-13 over this run.
        grid = build_generator(3000)
        x = grid.cell_centers
        v0 = np.array([2.0 + 0.5 * np.cos(np.pi * x),
                       2.0 - 0.3 * np.cos(2.0 * np.pi * x),
                       2.0 + 0.4 * np.cos(3.0 * np.pi * x),
                       np.full_like(x, 2.0)])
        scenario = Scenario(network=two_by_two, diffusion=grid, v0=v0,
                            dt=1e-3, t_end=0.2, sample_every=10)
        result = run(scenario)
        assert result.mean_conservation.max() <= 2e-14


_BATCH_FIELDS = ("times", "fields", "distances", "variances", "conservation",
                 "mean_conservation", "min_value", "clamp_l1", "bound_margin")


class TestRunBatch:
    @staticmethod
    def _scenarios(network, grid, scales, dt=0.1, t_end=2.0, **numerics):
        x = grid.cell_centers
        base = np.array([1.0, 1.0, 0.05, 0.05][:network.n_species])
        scenarios = []
        for scale in scales:
            v0 = scale * base[:, None] * (1.0 + 0.5 * np.cos(np.pi * x))
            v0[0] += 0.3 * scale * np.cos(2.0 * np.pi * x) ** 2
            scenarios.append(Scenario(network=network, diffusion=grid, v0=v0,
                                      dt=dt, t_end=t_end, sample_every=3,
                                      **numerics))
        return scenarios

    @staticmethod
    def _check_members_match_single_runs(scenarios, batch, snapshot_times):
        for scenario, got in zip(scenarios, batch):
            want = run(scenario, snapshot_times, fields=True)
            assert got.scenario is scenario
            for name in _BATCH_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert len(got.snapshots) == len(want.snapshots) == 3
            for (t_got, v_got), (t_want, v_want) in zip(got.snapshots,
                                                        want.snapshots):
                assert t_got == t_want
                assert np.array_equal(v_got, v_want)

    @pytest.mark.parametrize("n_cells", [50, DCT_MIN_CELLS])
    def test_bitwise_equal_to_single_runs(self, order_three, n_cells):
        # RK4 substep: the middle member clamps at this dt, the outer two
        # do not.
        grid = build_generator(n_cells)
        scenarios = self._scenarios(order_three, grid, (1.0, 3.0, 2.0))
        snapshot_times = (0.0, 0.5, 1.0)
        batch = run_batch(scenarios, snapshot_times, fields=True)
        assert [r.clamp_l1[-1] > 0.0 for r in batch] == [False, True, False]
        self._check_members_match_single_runs(scenarios, batch, snapshot_times)

    @pytest.mark.parametrize("name", ["two_by_two", "self_ionization"])
    @pytest.mark.parametrize("n_cells", [50, DCT_MIN_CELLS])
    def test_exact_flow_bitwise_equal_to_single_runs(self, request, name,
                                                     n_cells):
        # Exact reaction flow, on members far apart in mass.
        network = request.getfixturevalue(name)
        grid = build_generator(n_cells)
        scenarios = self._scenarios(network, grid, (0.25, 10.0, 1.0),
                                    dt=0.01, t_end=0.2)
        snapshot_times = (0.0, 0.05, 0.1)
        batch = run_batch(scenarios, snapshot_times, fields=True)
        assert all(r.clamp_l1[-1] == 0.0 for r in batch)
        self._check_members_match_single_runs(scenarios, batch, snapshot_times)

    def test_fields_are_opt_in(self, two_by_two, grid50):
        scenarios = self._scenarios(two_by_two, grid50, (1.0, 2.0),
                                    dt=1e-3, t_end=0.03)
        assert all(r.fields is None for r in run_batch(scenarios))
        assert run(scenarios[0]).fields is None

    def test_rejects_scenarios_that_do_not_match(self, two_by_two,
                                                 self_ionization, grid50):
        base = self._scenarios(two_by_two, grid50, (1.0,), dt=1e-3,
                               t_end=0.03)[0]
        others = [
            self._scenarios(two_by_two, build_generator(50), (1.0,),
                            dt=1e-3, t_end=0.03)[0],
            self._scenarios(two_by_two, grid50, (1.0,), dt=2e-3,
                            t_end=0.03)[0],
            self._scenarios(two_by_two, grid50, (1.0,), dt=1e-3,
                            t_end=0.04)[0],
            self._scenarios(two_by_two, grid50, (1.0,), dt=1e-3,
                            t_end=0.03, include_reaction=False)[0],
            Scenario(network=self_ionization, diffusion=grid50,
                     v0=np.ones((3, 50)), dt=1e-3, t_end=0.03,
                     sample_every=3),
        ]
        for other in others:
            with pytest.raises(ValueError, match="must share"):
                run_batch([base, other])
        with pytest.raises(ValueError):
            run_batch([])

    def test_blowup_of_one_member_raises(self, order_three, grid50):
        # As in test_blowup_raised_by_run, next to a member that stays tame.
        tame = np.ones((3, 50))
        wild = np.array([30.0, 1.0, 1.0])[:, None] * np.ones((3, 50))
        scenarios = [Scenario(network=order_three, diffusion=grid50,
                              v0=v0, dt=0.1, t_end=2.5) for v0 in (tame, wild)]
        with pytest.raises(BlowUpError):
            run_batch(scenarios)
