"""Well-mixed kinetics: scalar reduction, trajectories, and decay envelopes.

Because all conserved combinations are frozen without diffusion, the full
q-species system collapses onto a single pivot species; every other
concentration is an affine function of the pivot.  The pivot obeys a scalar
polynomial ODE whose unique root in the physical window is the steady value
(``network.steady_state``), which makes both the sharp decay rate and an
exact closed-form expression for the distance to equilibrium available for
verification.

A trajectory is sampled at uniform times about ``SAMPLE_SPACING / rate``
apart.  When both sides of the reaction have total order at most 2, the
pivot follows the exact Riccati flow of ``rdsim``, evaluated at every sample
time in one vectorised call (``exact_trajectory``); no ODE solver runs.
Higher orders integrate the pivot equation with RK45, its step capped at the
same spacing (``integrate_reaction``).  Either way a run may take at most
``MAX_STEPS`` samples or steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .analysis import fit_decay_rate
from .network import ReactionNetwork, SteadyState, steady_state
from .rdsim import _riccati_flow

__all__ = [
    "ScalarReduction",
    "Trajectory",
    "StiffnessError",
    "pivot_reduction",
    "integrate_reaction",
    "exact_trajectory",
    "step_count",
    "envelope_constant",
    "exact_decay_residual",
    "measure_rate",
]


# Sample spacing (and RK45's step cap) in units of the decay time 1 / rate:
# the sampled tail keeps full relative accuracy for rate fitting.
SAMPLE_SPACING = 0.08
# Most samples or RK45 steps a well-mixed run may take: about 250 times the
# 401 samples of the shipped self_ionization_ode config.
MAX_STEPS = 10**5


class StiffnessError(RuntimeError):
    """The adaptive integrator underflowed its step size."""


@dataclass(frozen=True)
class ScalarReduction:
    """Affine reduction of the well-mixed system onto one pivot species.

    Attributes
    ----------
    pivot : int
        Index of the reduced species: among species that grow across the
        reaction, the one with the smallest ``v0 / signed_rate``.
    slopes, offsets : (q,) arrays
        Affine reconstruction ``v_i(t) = slopes[i] * v_pivot(t) + offsets[i]``.
    rhs_coeffs : array
        Ascending coefficients of the scalar rate polynomial F, with
        ``dv_pivot/dt = F(v_pivot)``.
    fixed_point : float
        The unique root of F inside ``(0, upper_bound)``; the pivot's
        steady value.
    upper_bound : float
        Least upper bound of the pivot trajectory (``inf`` if no species
        shrinks across the reaction).
    cofactor_coeffs : array
        Ascending coefficients of Q, where ``F(X) = (X - fixed_point) Q(X)``;
        Q is strictly negative on the physical window and
        ``Q(fixed_point) = F'(fixed_point)`` is minus the sharp decay rate.
    """

    pivot: int
    slopes: np.ndarray
    offsets: np.ndarray
    rhs_coeffs: np.ndarray
    fixed_point: float
    upper_bound: float
    cofactor_coeffs: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the well-mixed system."""

    times: np.ndarray
    states: np.ndarray      # (len(times), q)
    pivot: int
    reduction: ScalarReduction

    @property
    def pivot_series(self) -> np.ndarray:
        return self.states[:, self.pivot]


def _rate_factory(network: ReactionNetwork, slopes, offsets, pivot):
    """Scalar rate function in factored (product) form; stable near 0."""
    reactants = network.reactants
    products = network.products
    lead = network.signed_rates[pivot]

    def rate(x: float) -> float:
        v = slopes * x + offsets
        return lead * (np.prod(v ** reactants) - np.prod(v ** products))

    return rate


def pivot_reduction(network: ReactionNetwork, v0) -> ScalarReduction:
    """Reduce the system to the pivot species for initial data ``v0``."""
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (network.n_species,):
        raise ValueError("v0 must have one entry per species")
    if np.any(v0 <= 0):
        raise ValueError("initial concentrations must be strictly positive")

    w = network.signed_rates
    pos = np.flatnonzero(w > 0)
    neg = np.flatnonzero(w < 0)
    if pos.size:
        pivot = int(pos[np.argmin(v0[pos] / w[pos])])
    else:
        # Mirror rule on the reversed reaction when nothing grows.
        pivot = int(neg[np.argmax(v0[neg] / w[neg])])

    slopes = w / w[pivot]
    offsets = w * (v0 / w - v0[pivot] / w[pivot])
    offsets[pivot] = 0.0

    forward = np.array([1.0])
    backward = np.array([1.0])
    for i in range(network.n_species):
        linear = np.array([offsets[i], slopes[i]])
        if network.reactants[i]:
            forward = npoly.polymul(forward, npoly.polypow(linear, int(network.reactants[i])))
        if network.products[i]:
            backward = npoly.polymul(backward, npoly.polypow(linear, int(network.products[i])))
    degree = max(forward.size, backward.size)
    rhs = np.zeros(degree)
    rhs[:forward.size] += forward
    rhs[:backward.size] -= backward
    rhs *= w[pivot]

    if w[pivot] > 0:
        opposite = v0[neg] / w[neg]
        upper = v0[pivot] - w[pivot] * float(np.max(opposite)) if neg.size else np.inf
    else:
        opposite = v0[pos] / w[pos]
        upper = v0[pivot] - w[pivot] * float(np.min(opposite)) if pos.size else np.inf

    root = float(steady_state(network, v0).concentrations[pivot])
    cofactor = _divide_out_root(rhs, root)

    return ScalarReduction(
        pivot=pivot,
        slopes=slopes,
        offsets=offsets,
        rhs_coeffs=rhs,
        fixed_point=root,
        upper_bound=upper,
        cofactor_coeffs=cofactor,
    )


def _divide_out_root(coeffs: np.ndarray, root: float) -> np.ndarray:
    """Synthetic division: the quotient of coeffs(X) by (X - root)."""
    n = coeffs.size
    quotient = np.zeros(max(n - 1, 1))
    quotient[-1] = coeffs[-1]
    for k in range(n - 2, 0, -1):
        quotient[k - 1] = coeffs[k] + root * quotient[k]
    return quotient


def _decay_rate(reduction: ScalarReduction) -> float:
    """Sharp decay rate ``-Q(fixed_point)`` of the pivot."""
    return float(-npoly.polyval(reduction.fixed_point,
                                reduction.cofactor_coeffs))


def _within_budget(steps: float) -> float:
    if not steps <= MAX_STEPS:
        raise ValueError(f"reaching t_end takes {steps:.3g} steps, above the "
                         f"budget of {MAX_STEPS:.3g}")
    return steps


def step_count(rate: float, t_end: float) -> int:
    """Whole steps of about ``SAMPLE_SPACING / rate`` from 0 to ``t_end``.

    Raises ``ValueError`` above ``MAX_STEPS``, before anything of that size
    is allocated.
    """
    return max(1, round(_within_budget(t_end * rate / SAMPLE_SPACING)))


def _trajectory(reduction: ScalarReduction, times, pivot_values) -> Trajectory:
    """Every species from the pivot series, through the affine reduction."""
    states = (pivot_values[:, None] * reduction.slopes[None, :]
              + reduction.offsets[None, :])
    return Trajectory(times=times, states=states, pivot=reduction.pivot,
                      reduction=reduction)


def exact_trajectory(network: ReactionNetwork, v0, t_end: float) -> Trajectory:
    """Sample the exact well-mixed flow of a network of order at most 2.

    The times are uniform from 0 to ``t_end``, in ``step_count`` equal steps.
    Every sample is the Riccati flow of ``rdsim`` taken from ``v0`` over its
    own time, one column per sample, so no error accumulates along the
    trajectory.
    """
    if network.riccati_coefficients is None:
        raise ValueError("the exact flow needs both sides of order <= 2")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    reduction = pivot_reduction(network, v0)
    times = np.linspace(0.0, t_end,
                        step_count(_decay_rate(reduction), t_end) + 1)
    columns = np.repeat(np.asarray(v0, dtype=float)[:, None], times.size,
                        axis=1)
    flow = _riccati_flow(network, columns, times)
    return _trajectory(reduction, times, flow[reduction.pivot])


def integrate_reaction(network: ReactionNetwork, v0, t_end: float,
                       tol: float = 1e-10, t_eval=None,
                       max_step: float | None = None) -> Trajectory:
    """Integrate the well-mixed system with an embedded adaptive RK pair.

    Only the scalar pivot equation is integrated; the remaining species are
    reconstructed through the affine relations, so conserved combinations
    hold to machine precision.  The step size is additionally capped at
    ``SAMPLE_SPACING / rate`` so that the sampled tail keeps full relative
    accuracy for rate fitting; a horizon that needs more than ``MAX_STEPS``
    such steps raises ``ValueError``.  This is the path for networks of
    order above 2, and an oracle for ``exact_trajectory``.
    """
    from scipy.integrate import solve_ivp

    if t_end <= 0:
        raise ValueError("t_end must be positive")
    reduction = pivot_reduction(network, v0)
    rate = _rate_factory(network, reduction.slopes, reduction.offsets,
                         reduction.pivot)
    # Cap the step well below the decay scale: in the tail the controller
    # would otherwise grow the step until the per-step decay factor loses
    # relative accuracy, biasing fitted rates and the closed-form check.
    if max_step is None:
        max_step = min(t_end, SAMPLE_SPACING / max(_decay_rate(reduction), 1e-12))
    _within_budget(t_end / max_step)

    sol = solve_ivp(lambda t, y: [rate(y[0])], (0.0, t_end),
                    [float(np.asarray(v0, dtype=float)[reduction.pivot])],
                    method="RK45", rtol=tol, atol=tol,
                    max_step=max_step, t_eval=t_eval)
    if not sol.success:
        raise StiffnessError(f"adaptive integration failed: {sol.message}")
    return _trajectory(reduction, sol.t, sol.y[0])


def _log_factor_integrand(reduction: ScalarReduction):
    """Integrand (Q(a) - Q(s)) / ((a - s) Q(a)) with its removable point patched."""
    q_coeffs = reduction.cofactor_coeffs
    s = reduction.fixed_point
    q_at_s = npoly.polyval(s, q_coeffs)
    dq_at_s = npoly.polyval(s, npoly.polyder(q_coeffs))

    def integrand(a: float) -> float:
        if abs(a - s) < 1e-7:
            return dq_at_s / q_at_s
        q_a = npoly.polyval(a, q_coeffs)
        return (q_a - q_at_s) / ((a - s) * q_a)

    return integrand


def envelope_constant(reduction: ScalarReduction, v0) -> float:
    """Log-prefactor of the decay envelope, by adaptive quadrature.

    The distance of the pivot to its steady value is bounded by
    ``exp(|K|) * |v0_pivot - s| * exp(-rate * t)`` where ``K`` is the
    integral returned here, taken from the initial pivot value to the
    steady value.
    """
    from scipy.integrate import quad

    start = float(np.asarray(v0, dtype=float)[reduction.pivot])
    if start == reduction.fixed_point:
        return 0.0
    integrand = _log_factor_integrand(reduction)
    value, err = quad(integrand, start, reduction.fixed_point,
                      epsabs=1e-12, epsrel=1e-11, limit=200)
    if not np.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise RuntimeError("envelope quadrature did not converge")
    return float(value)


def exact_decay_residual(reduction: ScalarReduction, trajectory: Trajectory,
                         floor: float = 1e-8) -> float:
    """Worst relative mismatch between the trajectory and its closed form.

    The scalar equation integrates exactly to

        |v(t) - s| = |v(0) - s| * exp(Q(s) t + I(v(0) -> v(t))),

    with I the quadrature of the patched integrand.  Both sides are
    evaluated at every sample whose distance exceeds ``floor`` (below it,
    storage roundoff dominates) and the largest relative difference is
    returned.  This is the strongest self-check of the kinetics path.
    """
    from scipy.integrate import quad

    s = reduction.fixed_point
    q_at_s = npoly.polyval(s, reduction.cofactor_coeffs)
    integrand = _log_factor_integrand(reduction)

    series = trajectory.pivot_series
    start_gap = abs(series[0] - s)
    if start_gap == 0.0:
        return 0.0

    worst = 0.0
    accumulated = 0.0
    previous = series[0]
    for t, value in zip(trajectory.times[1:], series[1:]):
        piece, _ = quad(integrand, previous, value, epsabs=1e-13, epsrel=1e-11,
                        limit=200)
        accumulated += piece
        previous = value
        measured = abs(value - s)
        if measured < floor:
            continue
        predicted = start_gap * np.exp(q_at_s * t + accumulated)
        worst = max(worst, abs(measured - predicted) / measured)
    return worst


def measure_rate(trajectory: Trajectory, steady: SteadyState,
                 window_fraction: float = 0.6,
                 floor: float = 1e-12) -> tuple[float, float]:
    """Fit the decay rate of the pivot's distance to its steady value.

    Requires at least four decades of decay above the noise floor; the fit
    runs over the last ``window_fraction`` of the above-floor samples so
    the envelope-prefactor transient does not bias the slope.  Returns
    ``(rate, r_squared)``.
    """
    series = np.abs(trajectory.pivot_series - steady.concentrations[trajectory.pivot])
    above = series[series > floor]
    if above.size < 8 or above.max() < 1e4 * max(above.min(), np.finfo(float).tiny):
        raise ValueError("insufficient dynamic range: need >= 4 decades of "
                         "decay above the noise floor")
    return fit_decay_rate(trajectory.times, series, window_fraction, floor)
