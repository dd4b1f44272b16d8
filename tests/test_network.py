from fractions import Fraction

import numpy as np
import pytest

from rdlab.network import (build_network, conservation_basis, is_two_by_two,
                           mass_action, normalize_rates, optimal_rate,
                           steady_state)

from conftest import random_network


class TestNormalizeRates:
    def test_unit_ratio_needs_no_scaling(self):
        scaling, rates = normalize_rates([1, 1, 0, 0], [0, 0, 1, 1], 1.0, 1.0)
        assert np.array_equal(scaling, np.ones(4))
        assert np.array_equal(rates, np.ones(4))

    def test_unit_ratio_self_ionization(self):
        scaling, rates = normalize_rates([2, 0, 0], [0, 1, 1], 1.0, 1.0)
        assert np.array_equal(scaling, np.ones(3))
        assert np.array_equal(rates, np.ones(3))

    def test_ratio_absorbed_by_first_species(self):
        # Direct substitution: scaling_1 solves the product condition alone,
        # then each rate is scaling_i * l / prod(scaling ** alpha).
        scaling, rates = normalize_rates([1, 1, 0, 0], [0, 0, 1, 1], 1.0, 4.0)
        assert np.allclose(scaling, [4.0, 1.0, 1.0, 1.0])
        assert np.allclose(rates, [1.0, 0.25, 0.25, 0.25])
        ratio = np.prod(scaling ** (np.array([1, 1, 0, 0]) - np.array([0, 0, 1, 1])))
        assert abs(ratio - 4.0) <= 1e-12 * 4.0

    # normalize_rates is arithmetic only: build_network checks every rule.
    def test_rejects_catalyzer(self):
        with pytest.raises(ValueError, match="catalyzer"):
            build_network([1, 2, 0], [0, 2, 1], 1.0, 1.0)

    @pytest.mark.parametrize("forward,backward", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_rates(self, forward, backward):
        with pytest.raises(ValueError, match="positive"):
            build_network([1, 0], [0, 1], forward, backward)

    @pytest.mark.parametrize("coefficient", [1e20, 2.0**63, np.inf, np.nan,
                                             -1.0, 0.5])
    def test_rejects_coefficients_that_are_not_int64(self, coefficient):
        # 1e20 and 2^63 used to wrap to -2^63 in the int64 cast.
        with pytest.raises(ValueError, match="nonnegative integers"):
            build_network([coefficient, 1, 0, 0], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="nonnegative integers"):
            build_network([1, 1, 0, 0], [0, 0, coefficient, 1])

    def test_rejects_one_sided_reaction(self):
        # All species on the same side violates mass conservation.
        with pytest.raises(ValueError, match="sign"):
            build_network([1, 2], [2, 3])

    def test_product_condition_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            net = random_network(rng)
            ratio = np.prod(net.scaling ** (net.reactants - net.products))
            target = net.rate_backward / net.rate_forward
            assert abs(ratio - target) <= 1e-12 * target
            assert np.all(net.species_rates > 0)


class TestConservationBasis:
    def test_two_by_two_pairs(self, two_by_two):
        basis = conservation_basis(two_by_two)
        # signed rates (-1, -1, 1, 1): pairing species 0 with each other one.
        assert np.allclose(basis[0], [-1.0, 1.0, 0.0, 0.0])
        assert np.allclose(basis[1], [-1.0, 0.0, -1.0, 0.0])
        assert np.allclose(basis[2], [-1.0, 0.0, 0.0, -1.0])

    def test_self_ionization_pairs(self, self_ionization):
        basis = conservation_basis(self_ionization)
        assert np.allclose(basis[0], [-0.5, -1.0, 0.0])
        assert np.allclose(basis[1], [-0.5, 0.0, -1.0])

    def test_orthogonality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            net = random_network(rng, n_species=5)
            basis = conservation_basis(net)
            assert basis.shape == (4, 5)
            residual = np.abs(basis @ net.signed_rates)
            assert residual.max() <= 1e-14


class TestSteadyState:
    def test_self_ionization_near_empty_ions(self, self_ionization):
        # phi(t) = 1 solves (eps + t)^2 = (2 - 2t)^2, so t = (2 - eps) / 3
        # and every steady concentration equals (2 + 2 eps) / 3.
        eps = 1e-9
        ss = steady_state(self_ionization, [2.0, eps, eps])
        assert ss.line_parameter == pytest.approx((2.0 - eps) / 3.0, abs=1e-11)
        assert np.allclose(ss.concentrations, (2.0 + 2.0 * eps) / 3.0, atol=1e-10)
        assert np.allclose(ss.concentrations, 2.0 / 3.0, atol=1e-8)

    def test_already_steady_means(self, two_by_two):
        ss = steady_state(two_by_two, [1.0, 1.0, 1.0, 1.0])
        assert ss.line_parameter == 0.0
        assert np.array_equal(ss.concentrations, np.ones(4))

    def test_two_by_two_closed_form(self, two_by_two):
        # Independent oracle: with unit rates the steady value of species 0
        # is (m_a + m_c)(m_a + m_d) / (m_a + m_b + m_c + m_d).
        means = np.array([2.0, 2.0, 1.0, 1.0])
        expected = (means[0] + means[2]) * (means[0] + means[3]) / means.sum()
        assert expected == 1.5
        ss = steady_state(two_by_two, means)
        assert abs(ss.concentrations[0] - expected) <= 1e-10
        assert np.allclose(ss.concentrations, 1.5, atol=1e-10)

    def test_rejects_nonpositive_means(self, two_by_two):
        with pytest.raises(ValueError, match="positive"):
            steady_state(two_by_two, [1.0, 0.0, 1.0, 1.0])

    def test_residuals_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            net = random_network(rng)
            means = rng.uniform(0.2, 3.0, net.n_species)
            ss = steady_state(net, means)
            assert np.all(ss.concentrations > 0)
            assert ss.product_residual <= 1e-10
            drift = conservation_basis(net) @ (ss.concentrations - means)
            scale = np.abs(means).max()
            assert np.abs(drift).max() <= 1e-10 * scale

    def test_log_phi_monotone_random(self):
        # The root is unique because log(phi) is strictly increasing between
        # the blow-up endpoints; check on a grid for random instances.
        rng = np.random.default_rng(31)
        for _ in range(1000):
            net = random_network(rng)
            means = rng.uniform(0.2, 3.0, net.n_species)
            w = net.signed_rates
            exponents = (net.products - net.reactants).astype(float)
            lower = np.max(-means[w > 0] / w[w > 0])
            upper = np.min(-means[w < 0] / w[w < 0])
            ts = np.linspace(lower + 1e-6 * (upper - lower),
                             upper - 1e-6 * (upper - lower), 32)
            values = [exponents @ np.log(means + t * w) for t in ts]
            assert np.all(np.diff(values) > 0)

    def test_root_unique_from_random_brackets(self, self_ionization):
        # Bisection from 64 random sub-brackets that straddle the root must
        # land on the same parameter; reimplemented here as an independent
        # oracle on log(phi).
        means = np.array([2.0, 0.3, 0.7])
        ss = steady_state(self_ionization, means)
        w = self_ionization.signed_rates
        exponents = (self_ionization.products - self_ionization.reactants).astype(float)

        def log_phi(t):
            return exponents @ np.log(means + t * w)

        lower = np.max(-means[w > 0] / w[w > 0])
        upper = np.min(-means[w < 0] / w[w < 0])
        rng = np.random.default_rng(5)
        for _ in range(64):
            lo = rng.uniform(lower + 1e-9, ss.line_parameter)
            hi = rng.uniform(ss.line_parameter, upper - 1e-9)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if log_phi(mid) < 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-15:
                    break
            assert abs(0.5 * (lo + hi) - ss.line_parameter) <= 1e-10


class TestSteadyStateExact:
    """Steady states against exact rationals of the float means."""

    @staticmethod
    def _assert_within_ulps(ss, exact):
        for value, want in zip(ss.concentrations, exact):
            assert abs(Fraction(float(value)) - want) \
                <= 2 * Fraction(float(np.spacing(float(want))))
        assert ss.product_residual <= 1e-14

    def test_self_ionization(self, self_ionization):
        # (eps + t)^2 = (2 - 2t)^2: every species settles at (2 + 2 eps) / 3.
        eps = 1e-9
        ss = steady_state(self_ionization, [2.0, eps, eps])
        self._assert_within_ulps(ss, [(2 + 2 * Fraction(eps)) / 3] * 3)

    def test_two_by_two(self, two_by_two):
        # a - t = (a + c)(a + d) / (a + b + c + d) on the line (-t, -t, t, t).
        means = [1.0, 2.0, 0.3, 0.7]
        a, b, c, d = map(Fraction, means)
        t = a - (a + c) * (a + d) / (a + b + c + d)
        ss = steady_state(two_by_two, means)
        self._assert_within_ulps(ss, [a - t, b - t, c + t, d + t])

    def test_autocatalytic(self):
        # 2A <-> A + B with unit rates: a^2 = a b, so a = b = (m_a + m_b) / 2.
        network = build_network([2, 0], [1, 1])
        ss = steady_state(network, [0.7, 0.1])
        half = (Fraction(0.7) + Fraction(0.1)) / 2
        self._assert_within_ulps(ss, [half, half])


class TestOptimalRate:
    def test_two_by_two_unit_steady(self, two_by_two):
        ss = steady_state(two_by_two, [1.0, 1.0, 1.0, 1.0])
        assert optimal_rate(two_by_two, ss) == pytest.approx(4.0, rel=1e-12)

    def test_self_ionization(self, self_ionization):
        # At s = (2/3, 2/3, 2/3): (2/3)^2 * (4 + 1 + 1) / (2/3) = 4.
        eps = 1e-9
        ss = steady_state(self_ionization, [2.0, eps, eps])
        assert optimal_rate(self_ionization, ss) == pytest.approx(4.0, rel=1e-6)

    def test_linear_in_scale(self, two_by_two):
        # For equal concentrations c the rate is 4c; scaling property.
        rng = np.random.default_rng(3)
        for scale in rng.uniform(0.1, 5.0, 20):
            ss = steady_state(two_by_two, np.full(4, scale))
            assert optimal_rate(two_by_two, ss) == pytest.approx(4.0 * scale,
                                                                 rel=1e-12)

    def test_permutation_invariant_unit_rates(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            net = random_network(rng, unit_rates=True)
            means = rng.uniform(0.2, 3.0, net.n_species)
            rate = optimal_rate(net, steady_state(net, means))
            perm = rng.permutation(net.n_species)
            net_p = build_network(net.reactants[perm], net.products[perm])
            rate_p = optimal_rate(net_p, steady_state(net_p, means[perm]))
            assert rate_p == pytest.approx(rate, rel=1e-10)

    def test_permutation_invariant_general_rates(self):
        # Relabeling changes which species anchors the rescaling, so the
        # relabeled means must be mapped through the ratio of scalings
        # before comparing; the decay constant itself is gauge invariant.
        rng = np.random.default_rng(13)
        for _ in range(50):
            net = random_network(rng)
            means = rng.uniform(0.2, 3.0, net.n_species)
            rate = optimal_rate(net, steady_state(net, means))
            perm = rng.permutation(net.n_species)
            net_p = build_network(net.reactants[perm], net.products[perm],
                                  net.rate_forward, net.rate_backward)
            means_p = net_p.scaling * means[perm] / net.scaling[perm]
            rate_p = optimal_rate(net_p, steady_state(net_p, means_p))
            assert rate_p == pytest.approx(rate, rel=1e-10)


class TestMassAction:
    def test_zero_at_unit_point(self, two_by_two):
        assert mass_action(two_by_two, [1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_direct_values(self, two_by_two, self_ionization):
        assert mass_action(two_by_two, [2.0, 2.0, 1.0, 1.0]) == 3.0
        assert mass_action(self_ionization, [1.0, 0.5, 0.5]) == 0.75

    def test_zero_at_steady_state_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            net = random_network(rng)
            means = rng.uniform(0.2, 3.0, net.n_species)
            s = steady_state(net, means).concentrations
            forward = np.prod(s ** net.reactants)
            backward = np.prod(s ** net.products)
            scale = max(forward, backward, 1.0)
            assert abs(mass_action(net, s)) <= 1e-10 * scale


def test_is_two_by_two(two_by_two, self_ionization):
    assert is_two_by_two(two_by_two)
    assert not is_two_by_two(self_ionization)
    assert not is_two_by_two(build_network([1, 1, 0, 0], [0, 0, 1, 1], 1.0, 2.0))
