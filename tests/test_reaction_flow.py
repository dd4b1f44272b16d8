"""The exact reaction sub-flow of networks of order at most 2."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_low_order_network
from rdlab.network import build_network, conservation_basis
from rdlab.kinetics import _riccati_flow, _rk4, clamped_mass_action
from rdlab.rdsim import _reaction_substep

seeds = st.integers(0, 2**32 - 1)


def _window(network, u):
    """Per-cell interval of extents ``s`` that keep ``u + w s`` nonnegative."""
    w = network.signed_rates[:, None]
    extents = -u / w
    return (np.where(w > 0, extents, -np.inf).max(axis=0),
            np.where(w < 0, extents, np.inf).min(axis=0))


class TestCoefficients:
    def test_shipped_networks(self, two_by_two, self_ionization, order_three):
        quadratic, beta, beta0 = two_by_two.riccati_coefficients
        assert (quadratic, beta0) == (0.0, 0.0)
        assert beta.tolist() == [-1.0, -1.0, -1.0, -1.0]   # -(a + b + c + d)
        quadratic, beta, beta0 = self_ionization.riccati_coefficients
        assert (quadratic, beta.tolist(), beta0) == (3.0, [-4.0, -1.0, -1.0],
                                                     0.0)
        quadratic, beta, beta0 = build_network(
            [1, 0, 0], [0, 1, 1]).riccati_coefficients
        assert (quadratic, beta.tolist(), beta0) == (-1.0, [0.0, -1.0, -1.0],
                                                     -1.0)
        assert order_three.riccati_coefficients is None
        assert build_network([1, 0], [0, 3]).riccati_coefficients is None

    @given(seeds)
    def test_reproduce_rate_along_drift(self, seed):
        rng = np.random.default_rng(seed)
        network = random_low_order_network(rng)
        quadratic, beta, beta0 = network.riccati_coefficients
        u = rng.uniform(0.0, 2.0, (network.n_species, 16))
        lower, upper = _window(network, u)
        s = lower + (upper - lower) * rng.uniform(0.0, 1.0, 16)
        v = np.maximum(u + network.signed_rates[:, None] * s, 0.0)
        got = (quadratic * s * s + (beta @ u + beta0) * s
               + clamped_mass_action(network, u))
        want = clamped_mass_action(network, v)
        scale = 1.0 + np.abs(s).max() ** 2 + np.abs(u).max() ** 2
        assert np.abs(got - want).max() <= 1e-12 * scale


class TestFlow:
    @given(seeds)
    def test_matches_solve_ivp(self, seed):
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(seed)
        network = random_low_order_network(rng)
        q = network.n_species
        u = rng.uniform(0.0, 2.0, (q, 6))
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        w = network.signed_rates[:, None]

        def rhs(t, y):
            return (w * clamped_mass_action(network, y.reshape(q, -1))).ravel()

        sol = solve_ivp(rhs, (0.0, dt), u.ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        want = sol.y[:, -1].reshape(q, -1)
        assert np.abs(_riccati_flow(network, u, dt) - want).max() <= 1e-9

    @pytest.mark.parametrize("dt", [1e-3, 2.0, 1e4])
    def test_autocatalytic_escape_at_any_step(self, dt):
        # 2A <-> A + B: near a = 0, an unstable equilibrium, B > 0.  A cell
        # at a = 0 stays there; the others leave it for the stable one.
        from scipy.integrate import solve_ivp

        network = build_network([2, 0], [1, 1], 3.0, 0.5)
        u = np.array([[0.0, 1e-12, 1e-6, 0.5], [1.6, 1.6, 1.6, 1.6]])
        w = network.signed_rates[:, None]

        def rhs(t, y):
            return (w * clamped_mass_action(network, y.reshape(2, -1))).ravel()

        sol = solve_ivp(rhs, (0.0, dt), u.ravel(), method="Radau",
                        rtol=1e-10, atol=1e-14)
        v = _riccati_flow(network, u, dt)
        assert np.array_equal(v[:, 0], u[:, 0])
        assert np.abs(v - sol.y[:, -1].reshape(2, -1)).max() <= 1e-9

    @given(seeds, st.floats(1e-4, 10.0))
    def test_stays_in_physical_window(self, seed, dt):
        rng = np.random.default_rng(seed)
        network = random_low_order_network(rng)
        q = network.n_species
        u = rng.uniform(0.0, 2.0, (q, 24))
        u[rng.uniform(size=u.shape) < 0.2] = 0.0
        u[:, 0] = 0.0                            # every species is 0 here
        v = _riccati_flow(network, u, dt)
        assert np.all(np.isfinite(v))
        assert v.min() >= -1e-14 * u.max()
        assert np.array_equal(v[:, 0], u[:, 0])
        basis = conservation_basis(network)
        assert np.abs(basis @ (v - u)).max() <= 1e-13 * (1.0 + np.abs(u).max())

    @given(seeds)
    def test_agrees_with_rk4_as_dt_shrinks(self, seed):
        rng = np.random.default_rng(seed)
        network = random_low_order_network(rng)
        u = rng.uniform(0.1, 2.0, (network.n_species, 16))

        def gap(dt):
            return np.abs(_riccati_flow(network, u, dt)
                          - _rk4(network, u, dt)).max()

        coarse, fine = gap(2e-3), gap(1e-3)
        # RK4's local error is O(dt^5): halving dt divides it by about 32.
        assert fine <= coarse / 16.0 + 1e-14
        assert coarse <= 1e-6


class TestSubstep:
    def test_branch_follows_order(self, two_by_two, order_three):
        rng = np.random.default_rng(3)
        weights = np.full(20, 1.0 / 20)
        for network, flow in ((two_by_two, _riccati_flow),
                              (order_three, _rk4)):
            v = rng.uniform(0.5, 1.5, (network.n_species, 20))
            got, removed = _reaction_substep(network, v, 1e-3, weights)
            assert removed is None
            assert np.array_equal(got, flow(network, v, 1e-3))

    @pytest.mark.parametrize("name", ["two_by_two", "self_ionization"])
    def test_incoming_negative_mass_is_clamped(self, request, name):
        network = request.getfixturevalue(name)
        weights = np.full(20, 1.0 / 20)
        v = np.ones((network.n_species, 20))
        v[1, 4] = -0.01
        got, removed = _reaction_substep(network, v, 1e-9, weights)
        assert got.min() >= 0.0
        assert removed[0] == pytest.approx(0.01 / 20, rel=1e-6)
