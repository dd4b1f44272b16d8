import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm

from rdlab.diffusion import (DCT_MIN_CELLS, DENSE_MAX_CELLS, CosineBasis,
                             DenseBasis, build_generator, moment4, propagator,
                             refinement_study, semigroup_apply, variance)

PI_SQ = np.pi**2


@pytest.fixture(scope="module")
def laplacian200():
    return build_generator(200)


@pytest.fixture(scope="module")
def drifted400():
    return build_generator(400, potential=lambda x: 4.0 * x)


class TestBuildGenerator:
    def test_gap_eigenvalue_matches_continuum(self, laplacian200):
        assert abs(laplacian200.eigenvalues[1] - PI_SQ) <= 1e-3 * PI_SQ

    def test_uniform_weights_without_potential(self, laplacian200):
        assert np.all(laplacian200.weights == laplacian200.weights[0])
        assert laplacian200.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_drift_weights_match_potential(self, drifted400):
        expected = np.exp(-4.0 * drifted400.cell_centers)
        expected /= expected.sum()
        assert np.abs(drifted400.weights - expected).max() <= 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="3 grid cells"):
            build_generator(2)
        with pytest.raises(ValueError, match="positive"):
            build_generator(10, domain_length=0.0)
        with pytest.raises(ValueError, match="diffusivity"):
            build_generator(10, diffusivity=lambda x: -1.0)
        with pytest.raises(ValueError, match="diffusivity"):
            build_generator(10, diffusivity=lambda x: x - 0.5)

    def test_annihilates_constants(self, laplacian200, drifted400):
        for diff in (laplacian200, drifted400):
            scale = np.abs(diff.generator).max()
            residual = np.abs(diff.generator @ np.ones(diff.n_cells)).max()
            assert residual <= 1e-13 * scale

    def test_weights_are_invariant(self, drifted400):
        # sum_i mu_i (Lf)_i == 0 by the divergence-form construction.
        rng = np.random.default_rng(2)
        scale = np.abs(drifted400.generator).max()
        for _ in range(20):
            f = rng.standard_normal(drifted400.n_cells)
            residual = abs(drifted400.weights @ (drifted400.generator @ f))
            assert residual <= 1e-13 * scale * np.abs(f).max()

    def test_weighted_symmetry(self, drifted400):
        rng = np.random.default_rng(3)
        gen = drifted400.generator
        w = drifted400.weights
        scale = np.abs(gen).max()
        # Matrix-level detailed balance.
        balance = np.abs(w[:, None] * gen - (w[:, None] * gen).T).max()
        assert balance <= 1e-12 * np.abs(w[:, None] * gen).max()
        for _ in range(10):
            f = rng.standard_normal(drifted400.n_cells)
            g = rng.standard_normal(drifted400.n_cells)
            lhs = w @ (f * (gen @ g))
            rhs = w @ (g * (gen @ f))
            assert abs(lhs - rhs) <= 1e-12 * scale * np.abs(f).max() * np.abs(g).max()

    def test_dirichlet_form_nonnegative(self, drifted400):
        rng = np.random.default_rng(4)
        gen = drifted400.generator
        scale = np.abs(gen).max()
        for _ in range(20):
            f = rng.standard_normal(drifted400.n_cells)
            value = -(drifted400.weights @ (f * (gen @ f)))
            assert value >= -1e-13 * scale * np.abs(f).max() ** 2

    def test_spectrum_shape(self, laplacian200, drifted400):
        for diff in (laplacian200, drifted400):
            assert diff.eigenvalues[0] == 0.0
            assert diff.kernel_residual <= 1e-10
            assert diff.eigenvalues[1] > 0
            assert np.all(np.diff(diff.eigenvalues) >= 0)

    def test_markov_sign_structure(self, drifted400):
        gen = drifted400.generator
        off = gen - np.diag(np.diag(gen))
        assert off.min() >= 0.0
        assert np.diag(gen).max() <= 0.0


class TestSpectralGap:
    def test_value(self, laplacian200):
        gap = laplacian200.gap_constant
        assert gap == 1.0 / (2.0 * laplacian200.eigenvalues[1])
        assert abs(gap - 1.0 / (2.0 * PI_SQ)) <= 1e-3 / (2.0 * PI_SQ)

    def test_refinement_to_continuum(self):
        study = refinement_study([50, 100, 200, 400])
        assert np.abs(study.observed_orders - 2.0).max() <= 0.1
        target = 1.0 / (2.0 * PI_SQ)
        assert abs(study.extrapolated_gap_constant - target) <= 1e-8 * target

    def test_domain_length_scaling(self):
        # Gap eigenvalue scales like 1/length^2, so the constant scales
        # like length^2.
        long_domain = build_generator(200, domain_length=2.0)
        assert abs(long_domain.eigenvalues[1] - PI_SQ / 4.0) <= 1e-3 * PI_SQ / 4.0
        assert abs(long_domain.gap_constant - 4.0 / (2.0 * PI_SQ)) \
            <= 4e-3 / (2.0 * PI_SQ)

    def test_constant_diffusivity_scaling(self, laplacian200):
        fast = build_generator(200, diffusivity=lambda x: 4.0)
        assert np.allclose(fast.eigenvalues[1:], 4.0 * laplacian200.eigenvalues[1:],
                           rtol=1e-12)
        assert fast.gap_constant == pytest.approx(laplacian200.gap_constant / 4.0,
                                                  rel=1e-12)


class TestSemigroup:
    def test_identity_at_zero_time(self, drifted400):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(drifted400.n_cells)
        assert np.abs(semigroup_apply(drifted400, f, 0.0) - f).max() <= 1e-12

    def test_constants_invariant(self, drifted400):
        # Round trip through the eigenbasis of the drifted measure loses a
        # couple of digits more than the uniform case.
        c = 3.7 * np.ones(drifted400.n_cells)
        for t in (0.1, 1.0, 10.0):
            assert np.abs(semigroup_apply(drifted400, c, t) - c).max() <= 1e-11

    def test_mean_preserved(self, drifted400):
        rng = np.random.default_rng(6)
        f = rng.uniform(0.0, 2.0, drifted400.n_cells)
        mean0 = drifted400.weights @ f
        for t in (0.01, 1.0, 100.0):
            mean_t = drifted400.weights @ semigroup_apply(drifted400, f, t)
            assert abs(mean_t - mean0) <= 1e-13

    def test_rejects_negative_time(self, laplacian200):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_apply(laplacian200, np.ones(200), -0.1)

    def test_variance_spectral_identity(self, laplacian200):
        rng = np.random.default_rng(7)
        diff = laplacian200
        for _ in range(10):
            f = rng.standard_normal(diff.n_cells)
            t = rng.uniform(0.0, 0.5)
            coeffs = diff.eigenvectors.T @ (diff.weights * f)
            expected = np.sum(np.exp(-2.0 * diff.eigenvalues[1:] * t)
                              * coeffs[1:] ** 2)
            measured = variance(diff, semigroup_apply(diff, f, t))
            assert measured == pytest.approx(expected, rel=1e-10, abs=1e-14)
            bound = np.exp(-t / diff.gap_constant) * variance(diff, f)
            assert measured <= bound * (1.0 + 1e-12)

    def test_variance_decay_tight_on_gap_mode(self, laplacian200):
        e1 = laplacian200.eigenvectors[:, 1]
        for t in (0.05, 0.2):
            measured = variance(laplacian200, semigroup_apply(laplacian200, e1, t))
            bound = np.exp(-t / laplacian200.gap_constant) * variance(laplacian200, e1)
            assert measured == pytest.approx(bound, rel=1e-12)

    def test_semigroup_property(self, drifted400):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(drifted400.n_cells)
        left = semigroup_apply(drifted400, semigroup_apply(drifted400, f, 0.3), 0.7)
        right = semigroup_apply(drifted400, f, 1.0)
        assert np.abs(left - right).max() <= 1e-12 * np.abs(f).max()

    def test_propagator_matches_apply(self, laplacian200):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(laplacian200.n_cells)
        matrix = propagator(laplacian200, 0.05)
        direct = semigroup_apply(laplacian200, f, 0.05)
        assert np.abs(matrix @ f - direct).max() <= 1e-12

    def test_matrix_input(self, laplacian200):
        rng = np.random.default_rng(10)
        block = rng.standard_normal((laplacian200.n_cells, 3))
        together = semigroup_apply(laplacian200, block, 0.2)
        for j in range(3):
            single = semigroup_apply(laplacian200, block[:, j], 0.2)
            assert np.abs(together[:, j] - single).max() <= 1e-13

    def test_quartic_contractivity(self, laplacian200):
        # d/dt of the fourth moment of the evolved function is <= 0;
        # checked by forward differences along a time grid.
        rng = np.random.default_rng(11)
        f = rng.uniform(0.0, 2.0, laplacian200.n_cells)
        times = np.linspace(0.0, 0.5, 21)
        values = [moment4(laplacian200, semigroup_apply(laplacian200, f, t))
                  for t in times]
        assert np.all(np.diff(values) <= 1e-12)

    def test_fourth_moment_bound_random(self, laplacian200):
        # Centered fourth moment of the evolved function stays below
        # 4 exp(-t / (2 gap)) times the raw fourth moment.
        rng = np.random.default_rng(12)
        diff = laplacian200
        for _ in range(25):
            f = rng.uniform(0.0, 1.0, diff.n_cells)
            mean = diff.weights @ f
            raw4 = moment4(diff, f)
            for t in (0.01, 0.1, 1.0, 10.0):
                evolved = semigroup_apply(diff, f, t)
                lhs = diff.weights @ (evolved - mean) ** 4
                rhs = 4.0 * np.exp(-t / (2.0 * diff.gap_constant)) * raw4
                assert lhs <= rhs * (1.0 + 1e-12)


class TestMoments:
    def test_constant_has_zero_variance(self, laplacian200):
        assert variance(laplacian200, np.full(200, 2.5)) <= 1e-28

    def test_symmetric_split(self, laplacian200):
        f = np.ones(200)
        f[100:] = -1.0
        assert variance(laplacian200, f) == pytest.approx(1.0, abs=1e-14)
        assert moment4(laplacian200, f) == pytest.approx(1.0, abs=1e-14)

    def test_variance_identity_two_ways(self, laplacian200):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = rng.standard_normal(200)
            centered = f - laplacian200.weights @ f
            direct = laplacian200.weights @ (centered * centered)
            assert abs(variance(laplacian200, f) - direct) <= 1e-13

    def test_refinement_order_with_potential(self):
        study = refinement_study([50, 100, 200, 400],
                                 potential=lambda x: 4.0 * x)
        assert np.abs(study.observed_orders - 2.0).max() <= 0.3


@pytest.fixture(scope="module")
def cosine400():
    return build_generator(400, domain_length=2.5, diffusivity=lambda x: 1.7)


class TestCosineBasis:
    def test_limits(self):
        assert 200 < DCT_MIN_CELLS < DENSE_MAX_CELLS

    def test_basis_choice(self, laplacian200, drifted400, cosine400):
        assert isinstance(cosine400.basis, CosineBasis)
        assert isinstance(laplacian200.basis, DenseBasis)
        assert isinstance(drifted400.basis, DenseBasis)
        assert isinstance(build_generator(DCT_MIN_CELLS - 1).basis, DenseBasis)
        assert isinstance(build_generator(DCT_MIN_CELLS).basis, CosineBasis)

    def test_no_square_arrays_until_asked(self):
        diff = build_generator(3000)
        for holder in (diff, diff.basis):
            assert all(np.ndim(value) <= 1 for value in vars(holder).values())

    def test_eigenvalues_match_eigensolve_of_bands(self, cosine400):
        diag = np.zeros(400)
        diag[:-1] -= cosine400.upper
        diag[1:] -= cosine400.lower
        offdiag = -np.sqrt(cosine400.upper * cosine400.lower)
        values = eigh_tridiagonal(-diag, offdiag, eigvals_only=True)
        assert cosine400.eigenvalues[0] == 0.0
        rel = np.abs(cosine400.eigenvalues[1:] - values[1:]) / values[1:]
        assert rel.max() <= 1e-9

    # Up to step-size times: at t = 0.3 expm's own row sums are off by 2.5e-12.
    @pytest.mark.parametrize("t", [1e-3, 0.01])
    def test_semigroup_matches_expm(self, cosine400, t):
        exact = expm(t * cosine400.generator)
        assert np.abs(propagator(cosine400, t) - exact).max() <= 1e-12
        rng = np.random.default_rng(14)
        block = rng.uniform(0.0, 2.0, (400, 3))
        applied = semigroup_apply(cosine400, block, t)
        assert np.abs(applied - exact @ block).max() <= 1e-12
        assert np.abs(semigroup_apply(cosine400, block[:, 0], t)
                      - applied[:, 0]).max() <= 1e-14

    def test_eigenvectors_on_demand(self, cosine400):
        vectors = cosine400.eigenvectors
        assert np.all(vectors[:, 0] == 1.0)
        gram = vectors.T @ (cosine400.weights[:, None] * vectors)
        assert np.abs(gram - np.eye(400)).max() <= 1e-12
        residual = cosine400.generator @ vectors + vectors * cosine400.eigenvalues
        assert np.abs(residual).max() <= 1e-12 * cosine400.eigenvalues[-1]
        f = np.random.default_rng(15).standard_normal(400)
        coeffs = cosine400.basis.analyse(f)
        assert np.abs(coeffs - (cosine400.weights * f) @ vectors).max() <= 1e-13
        assert np.abs(cosine400.basis.synthesise(coeffs) - f).max() <= 1e-13

    def test_constants_and_means_exact(self, cosine400):
        c = np.full(400, 3.7)
        for t in (0.01, 1.0, 100.0):
            assert np.abs(semigroup_apply(cosine400, c, t) - c).max() <= 1e-14
        f = np.random.default_rng(16).uniform(0.0, 2.0, 400)
        mean0 = cosine400.weights @ f
        step = cosine400.basis.stepper(1e-3)
        for _ in range(1000):
            f = step(f)
        assert abs(cosine400.weights @ f - mean0) <= 1e-15
