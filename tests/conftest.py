import numpy as np
import pytest
from hypothesis import settings

from rdlab.network import ReactionNetwork, build_network

# Property tests draw the same examples on every run, and an example that
# takes over a second fails instead of slowing tier-1 down.
settings.register_profile("rdlab", derandomize=True, database=None,
                          deadline=1000, max_examples=50)
settings.load_profile("rdlab")


@pytest.fixture(scope="session")
def two_by_two() -> ReactionNetwork:
    """A + B <-> C + D with unit rates."""
    return build_network([1, 1, 0, 0], [0, 0, 1, 1])


@pytest.fixture(scope="session")
def self_ionization() -> ReactionNetwork:
    """2 W <-> H + OH with unit rates."""
    return build_network([2, 0, 0], [0, 1, 1])


@pytest.fixture(scope="session")
def order_three() -> ReactionNetwork:
    """2 A + B <-> C: a third-order side, so the stepper keeps RK4."""
    return build_network([2, 1, 0], [0, 0, 1])


def random_network(rng: np.random.Generator, n_species: int | None = None,
                   coeff_max: int = 3, unit_rates: bool = False) -> ReactionNetwork:
    """Random valid stoichiometry: no catalyzers, both drift signs present."""
    while True:
        q = int(n_species or rng.integers(2, 6))
        alpha = rng.integers(0, coeff_max + 1, q)
        beta = rng.integers(0, coeff_max + 1, q)
        change = beta - alpha
        if np.all(change != 0) and (change > 0).any() and (change < 0).any():
            break
    if unit_rates:
        forward = backward = 1.0
    else:
        forward = float(10.0 ** rng.uniform(-0.5, 0.5))
        backward = float(10.0 ** rng.uniform(-0.5, 0.5))
    return build_network(alpha, beta, forward, backward)


def random_low_order_network(rng: np.random.Generator) -> ReactionNetwork:
    """``random_network`` drawn until both sides have total order <= 2."""
    while True:
        network = random_network(rng, n_species=int(rng.integers(2, 5)),
                                 coeff_max=2)
        if network.riccati_coefficients is not None:
            return network
