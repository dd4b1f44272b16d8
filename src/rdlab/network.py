"""Reversible mass-action reaction networks.

A single reversible reaction between ``q`` species,

    sum_i reactants_i * A_i  <->  sum_i products_i * A_i,

is normalized so that each species carries one effective rate constant.
This module computes that normalization, the conserved linear combinations,
the unique positive steady state compatible with given initial means, and
the sharp kinetic decay constant of the well-mixed dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NetworkError",
    "ReactionNetwork",
    "SteadyState",
    "build_network",
    "normalize_rates",
    "conservation_basis",
    "steady_state",
    "optimal_rate",
    "mass_action",
    "is_two_by_two",
]


class NetworkError(ValueError):
    """A reaction that breaks one of the rules ``build_network`` checks.

    ``code`` is the config issue code of the rule, ``side`` is
    ``"reactants"``, ``"products"`` or ``"rates"``, and ``indices`` are the
    offending species (for ``"rates"``: 0 the forward, 1 the backward rate).
    """

    def __init__(self, code: str, side: str, indices, message: str):
        super().__init__(message)
        self.code = code
        self.side = side
        self.indices = tuple(int(i) for i in indices)


@dataclass(frozen=True)
class ReactionNetwork:
    """Stoichiometry and normalized rates of one reversible reaction.

    Build it with ``build_network``, which checks every rule.

    Attributes
    ----------
    reactants, products : int arrays, shape (q,)
        Stoichiometric coefficients of the forward and backward side.
    rate_forward, rate_backward : float
        Raw rate constants of the two directions.
    scaling : float array, shape (q,)
        Per-species rescaling factors, chosen so that
        ``prod(scaling ** (reactants - products)) == rate_backward / rate_forward``.
    species_rates : float array, shape (q,)
        Effective per-species rate constants of the rescaled system.
    """

    reactants: np.ndarray
    products: np.ndarray
    rate_forward: float
    rate_backward: float
    scaling: np.ndarray
    species_rates: np.ndarray

    @property
    def n_species(self) -> int:
        return int(self.reactants.size)

    @cached_property
    def signed_rates(self) -> np.ndarray:
        """species_rates * (products - reactants); the stoichiometric drift.

        Computed once and shared, so it is read-only.
        """
        rates = self.species_rates * (self.products - self.reactants)
        rates.flags.writeable = False
        return rates

    @cached_property
    def monomial_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``(species, exponent)`` pairs of the forward and backward monomials.

        Only nonzero exponents are listed, as Python ints; both sides are
        nonempty because the drift changes sign.
        """
        return tuple(tuple((i, int(e)) for i, e in enumerate(side) if e)
                     for side in (self.reactants, self.products))

    @cached_property
    def autocatalytic(self) -> bool:
        """True when some species appears on both sides of the reaction."""
        return bool(np.any((self.reactants > 0) & (self.products > 0)))

    @cached_property
    def riccati_coefficients(self) -> tuple[float, np.ndarray, float] | None:
        """``(A, beta, beta0)`` of the net rate along the drift, or ``None``.

        With ``w = signed_rates`` and ``R`` the net mass-action rate, a side
        of total order at most 2 is a product of at most two factors
        ``u_i + w_i s``, so ``R(u + w s) = A s^2 + (beta @ u + beta0) s +
        R(u)``.  ``None`` when either side has total order above 2.
        ``beta`` is shared, so it is read-only.
        """
        w = self.signed_rates
        quadratic = 0.0
        beta = np.zeros(self.n_species)
        beta0 = 0.0
        for sign, terms in zip((1.0, -1.0), self.monomial_terms):
            if sum(e for _, e in terms) > 2:
                return None
            factors = [i for i, e in terms for _ in range(e)]
            if len(factors) == 1:
                beta0 += sign * w[factors[0]]
            else:
                i, j = factors
                quadratic += sign * w[i] * w[j]
                beta[i] += sign * w[j]
                beta[j] += sign * w[i]
        beta.flags.writeable = False
        return float(quadratic), beta, float(beta0)


@dataclass(frozen=True)
class SteadyState:
    """Unique positive steady concentrations for given initial means.

    ``line_parameter`` locates the steady state on the affine line of
    conserved means; ``product_residual`` is how far the detailed-balance
    product condition is from being met, ``|prod(s_i^(p_i - r_i)) - 1|``.
    """

    concentrations: np.ndarray
    line_parameter: float
    product_residual: float


def normalize_rates(reactants, products, rate_forward: float,
                    rate_backward: float) -> tuple[np.ndarray, np.ndarray]:
    """Pick species rescalings absorbing the backward/forward rate ratio.

    The ratio condition leaves the rescaling underdetermined; we fix all
    factors to 1 except the first, which solves the product condition on
    its own (possible because species 0 changes across the reaction).
    Arithmetic only: ``build_network`` checks the inputs.

    Returns
    -------
    scaling, species_rates : float arrays, shape (q,)
    """
    scaling = np.ones(len(reactants))
    exponent = reactants[0] - products[0]
    # An overflowing ratio gives inf / inf, which build_network rejects.
    with np.errstate(all="ignore"):
        scaling[0] = (rate_backward / rate_forward) ** (1.0 / exponent)
        species_rates = scaling * rate_forward / np.prod(scaling ** reactants)
    return scaling, species_rates


def build_network(reactants, products, rate_forward: float = 1.0,
                  rate_backward: float = 1.0) -> ReactionNetwork:
    """Check every rule of one reversible reaction and assemble the network.

    The rules: nonnegative int64 coefficients, sides of equal length, no
    catalyzer species, a drift of both signs, positive rates, positive
    normalized species rates, and a scaling that reproduces the rate
    ratio.  The first rule broken raises ``NetworkError``.
    """
    sides = []
    for side, coeffs in (("reactants", reactants), ("products", products)):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise NetworkError("bad-value", side, (),
                               f"{side} must be a non-empty 1-D vector")
        # Every comparison fails on NaN; inf and values from 2^63 up would
        # wrap in the int64 cast.
        bad = ~((arr >= 0) & (arr < 2.0**63) & (arr == np.round(arr)))
        if np.any(bad):
            raise NetworkError("bad-value", side, np.flatnonzero(bad),
                               f"{side} must contain nonnegative integers "
                               "below 2^63")
        sides.append(arr.astype(np.int64))
    reactants, products = sides
    if reactants.shape != products.shape:
        raise NetworkError("bad-value", "products", (),
                           "reactants and products must have the same length")
    change = products - reactants
    if np.any(change == 0):
        raise NetworkError("catalyzer-species", "products",
                           np.flatnonzero(change == 0),
                           "every species must change across the reaction "
                           "(catalyzer species are not supported)")
    if not (np.any(change > 0) and np.any(change < 0)):
        raise NetworkError("no-sign-change", "products", (),
                           "mass conservation requires species on both "
                           "sides: products - reactants must change sign")
    bad = [i for i, rate in enumerate((rate_forward, rate_backward))
           if not rate > 0]
    if bad:
        raise NetworkError("bad-value", "rates", bad,
                           "rate constants must be positive")
    rate_forward, rate_backward = float(rate_forward), float(rate_backward)
    scaling, species_rates = normalize_rates(reactants, products,
                                             rate_forward, rate_backward)
    if not np.all(species_rates > 0):
        raise NetworkError("bad-value", "rates", (0, 1),
                           "normalized species rates must be positive")
    ratio = float(np.prod(scaling ** -change))
    target = rate_backward / rate_forward
    if not abs(ratio - target) <= 1e-12 * target:
        raise NetworkError("bad-value", "rates", (0, 1),
                           "scaling factors do not reproduce the rate ratio")
    return ReactionNetwork(reactants=reactants, products=products,
                           rate_forward=rate_forward,
                           rate_backward=rate_backward,
                           scaling=scaling, species_rates=species_rates)


def conservation_basis(network: ReactionNetwork) -> np.ndarray:
    """Basis of the (q-1)-dimensional space of conserved combinations.

    Every returned row ``z`` satisfies ``z @ network.signed_rates == 0``;
    along such combinations the kinetics cancel and only diffusion acts.
    The basis pairs species 0 with each other species, mirroring the
    pairwise differences used to eliminate variables from the system.
    """
    w = network.signed_rates
    q = network.n_species
    basis = np.zeros((q - 1, q))
    basis[:, 0] = 1.0 / w[0]
    for j in range(q - 1):
        basis[j, j + 1] = -1.0 / w[j + 1]
    return basis


def steady_state(network: ReactionNetwork, means) -> SteadyState:
    """Solve for the unique positive steady state with the given means.

    The steady state lies on the affine line ``means + t * signed_rates``;
    the detailed-balance product condition becomes ``phi(t) = 1`` where
    ``log phi`` is strictly increasing between the two blow-up endpoints.
    Bisection on ``log phi``, which converges unconditionally near the
    endpoints, brackets the root; at most three Newton steps inside that
    bracket then polish it to roundoff.
    """
    means = np.asarray(means, dtype=float)
    if means.shape != (network.n_species,):
        raise ValueError("means must have one entry per species")
    if np.any(means <= 0):
        raise ValueError("all initial means must be strictly positive")

    w = network.signed_rates
    exponents = (network.products - network.reactants).astype(float)
    pos = w > 0
    neg = w < 0
    lower = float(np.max(-means[pos] / w[pos]))
    upper = float(np.min(-means[neg] / w[neg]))
    if not lower < upper:
        raise RuntimeError("empty steady-state bracket; invalid network state")
    span = upper - lower
    pad = 1e-13 * span

    def log_phi(t: float) -> float:
        return float(exponents @ np.log(means + t * w))

    lo, hi = lower + pad, upper - pad
    if not (log_phi(lo) < 0.0 < log_phi(hi)):
        raise RuntimeError("steady-state bracket does not straddle the root")
    t = 0.5 * (lo + hi)
    for _ in range(200):
        t = 0.5 * (lo + hi)
        value = log_phi(t)
        if abs(value) <= 1e-12:
            break
        if value < 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= 1e-14 * span:
            t = 0.5 * (lo + hi)
            break

    # The slope of log phi, sum_i e_i w_i / (means_i + t w_i), is positive.
    drift = exponents * w
    for _ in range(3):
        value = log_phi(t)
        if value == 0.0:
            break
        polished = t - value / float(drift @ (1.0 / (means + t * w)))
        if not lo <= polished <= hi or polished == t:
            break
        t = polished

    concentrations = means + t * w
    residual = abs(float(np.expm1(log_phi(t))))
    return SteadyState(concentrations=concentrations, line_parameter=t,
                       product_residual=residual)


def optimal_rate(network: ReactionNetwork, steady: SteadyState) -> float:
    """Sharp exponential decay constant of the well-mixed kinetics.

    Equals ``prod(s_i^reactants_i) * sum_i k_i (p_i - r_i)^2 / s_i`` at the
    steady state ``s``; the well-mixed trajectory approaches ``s`` exactly
    at this rate.
    """
    s = steady.concentrations
    change = network.products - network.reactants
    return float(np.prod(s ** network.reactants)
                 * np.sum(network.species_rates * change.astype(float) ** 2 / s))


def mass_action(network: ReactionNetwork, v) -> float:
    """Net mass-action rate: forward monomial minus backward monomial."""
    v = np.asarray(v, dtype=float)
    if v.shape != (network.n_species,):
        raise ValueError("v must have one entry per species")
    if not np.all(np.isfinite(v)):
        raise ValueError("v must be finite")
    return float(np.prod(v ** network.reactants) - np.prod(v ** network.products))


def is_two_by_two(network: ReactionNetwork) -> bool:
    """True for A + B <-> C + D with unit effective rates (canonical order)."""
    return (network.n_species == 4
            and np.array_equal(network.reactants, [1, 1, 0, 0])
            and np.array_equal(network.products, [0, 0, 1, 1])
            and bool(np.allclose(network.species_rates, 1.0, rtol=1e-12, atol=0.0)))
