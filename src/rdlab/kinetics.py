"""Reaction kinetics: the reaction flows, scalar reduction, trajectories
and decay envelopes.

``reaction_flow``, the reaction substep of ``rdsim``, is the exact Riccati
flow when both sides of the reaction have total order at most 2, and an RK4
step of ``clamped_mass_action`` otherwise.  The sharp rate is
``ScalarReduction.rate``: ``optimal_rate`` of the reduction's steady state.

Because all conserved combinations are frozen without diffusion, the full
q-species system collapses onto a single pivot species; every other
concentration is an affine function of the pivot.  The pivot obeys a scalar
polynomial ODE whose unique root in the physical window is the steady value
(``network.steady_state``), which makes both the sharp decay rate and an
exact closed-form expression for the distance to equilibrium available for
verification.

A trajectory is sampled at uniform times about ``SAMPLE_SPACING / rate``
apart.  When both sides of the reaction have total order at most 2, the
pivot follows the exact Riccati flow, evaluated at every sample time in one
vectorised call (``exact_trajectory``); no ODE solver runs.  Higher orders
integrate the pivot equation with RK45, its step capped at the same spacing
(``integrate_reaction``).  Either way a run may take at most ``MAX_STEPS``
samples or steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .analysis import fit_decay_rate
from .network import (ReactionNetwork, SteadyState, optimal_rate,
                      steady_state)

__all__ = [
    "clamped_mass_action",
    "reaction_flow",
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
_TINY = np.finfo(float).tiny


class StiffnessError(RuntimeError):
    """The adaptive integrator underflowed its step size."""


def _monomial(vp: np.ndarray, terms) -> np.ndarray:
    (i, e), *rest = terms
    value = vp[i] if e == 1 else vp[i] ** e
    for i, e in rest:
        value = value * (vp[i] if e == 1 else vp[i] ** e)
    return value


def clamped_mass_action(network: ReactionNetwork, v: np.ndarray) -> np.ndarray:
    """Net mass-action rate with monomials evaluated on positive parts.

    Loops over the network's nonzero exponents only (``monomial_terms``).
    """
    vp = np.maximum(v, 0.0)
    forward_terms, backward_terms = network.monomial_terms
    return _monomial(vp, forward_terms) - _monomial(vp, backward_terms)


def _rk4(network: ReactionNetwork, v: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4 step of the clamped kinetics.

    The kinetics moves every species along the drift ``w``, so each stage
    is ``w`` times one scalar rate field.
    """
    w = network.signed_rates[:, None]
    half = (0.5 * dt) * w
    m1 = clamped_mass_action(network, v)
    m2 = clamped_mass_action(network, v + half * m1)
    m3 = clamped_mass_action(network, v + half * m2)
    m4 = clamped_mass_action(network, v + (dt * w) * m3)
    return v + ((dt / 6.0) * w) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)


def _riccati_flow(network: ReactionNetwork, v: np.ndarray,
                  dt: float | np.ndarray) -> np.ndarray:
    """Exact flow of the kinetics of a network of order at most 2.

    Each cell moves along the drift, ``v + w s``, and its extent solves
    ``ds/dt = A s^2 + B s + C`` from ``s(0) = 0``, with ``C`` the clamped
    rate and ``B = beta @ max(v, 0) + beta0`` (``riccati_coefficients``):
    ``s = 2C(1 - E) / ((delta - B) + (delta + B) E)``, where
    ``delta = sqrt(B^2 - 4AC)`` and ``E = exp(-delta dt)``.  It never
    divides by ``A``.  ``delta^2`` is clipped at the smallest normal float
    against cancellation: in a cell where every species is 0, ``B = C =
    0``, and the clip turns 0/0 into the ``delta -> 0`` limit.  Every
    operation is elementwise per cell, so ``dt`` may also be an array with
    one step per column (``exact_trajectory`` flows one initial state to
    every sample time at once).
    """
    quadratic, beta, beta0 = network.riccati_coefficients
    c = clamped_mass_action(network, v)
    b = (beta[:, None] * np.maximum(v, 0.0)).sum(axis=0)
    if beta0:
        b += beta0
    disc = b * b
    if quadratic:
        disc -= (4.0 * quadratic) * c
    delta = np.sqrt(np.maximum(disc, _TINY, out=disc), out=disc)
    m = np.expm1(delta * -dt)        # E - 1
    plus = delta + b
    if network.autocatalytic:
        # A species on both sides lets B turn positive.  There delta - B
        # cancels, so take it as -4AC / (delta + B), and E from exp, kept
        # above 0 so that a cell resting on an unstable equilibrium, C = 0,
        # keeps s = 0 however long the step.
        with np.errstate(divide="ignore", invalid="ignore"):
            minus = np.where(b > 0.0, (-4.0 * quadratic) * c / plus, delta - b)
        e = np.maximum(np.exp(delta * -dt), _TINY)
        half = 0.5 * (minus + plus * e)
    else:
        # Here B <= 0, and the halved denominator delta + (delta + B) m / 2
        # stays at least (delta - B) / 2 for any step.
        half = plus
        half *= 0.5 * m
        half += delta
    extent = c * m
    extent /= half                   # -s
    # Species 0's rounded increment moves every species, so each conserved
    # combination (species 0 paired with species j) takes one rounding.
    w = network.signed_rates
    moved = v[0] - w[0] * extent
    moved -= v[0]
    out = (w / w[0])[:, None] * moved
    out += v
    return out


def reaction_flow(network: ReactionNetwork, v: np.ndarray,
                  dt: float) -> np.ndarray:
    """One reaction step of every cell: the exact flow for order <= 2, else RK4.

    The caller clamps any undershoot below 0.
    """
    if network.riccati_coefficients is None:
        return _rk4(network, v, dt)
    return _riccati_flow(network, v, dt)


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
        steady value, ``steady.concentrations[pivot]``.
    upper_bound : float
        Least upper bound of the pivot trajectory (``inf`` if no species
        shrinks across the reaction).
    cofactor_coeffs : array
        Ascending coefficients of Q, where ``F(X) = (X - fixed_point) Q(X)``;
        Q is strictly negative on the physical window and
        ``Q(fixed_point) = F'(fixed_point)`` is minus the sharp decay rate.
    steady : SteadyState
        The steady state of ``v0``'s conserved means.
    rate : float
        The sharp decay rate, ``optimal_rate(network, steady)``.
    """

    pivot: int
    slopes: np.ndarray
    offsets: np.ndarray
    rhs_coeffs: np.ndarray
    fixed_point: float
    upper_bound: float
    cofactor_coeffs: np.ndarray
    steady: SteadyState
    rate: float


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


def pivot_reduction(network: ReactionNetwork, v0) -> ScalarReduction:
    """Reduce the system to the pivot species for initial data ``v0``."""
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (network.n_species,):
        raise ValueError("v0 must have one entry per species")
    if np.any(v0 <= 0):
        raise ValueError("initial concentrations must be strictly positive")
    steady = steady_state(network, v0)

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

    root = float(steady.concentrations[pivot])
    cofactor = _divide_out_root(rhs, root)

    return ScalarReduction(
        pivot=pivot,
        slopes=slopes,
        offsets=offsets,
        rhs_coeffs=rhs,
        fixed_point=root,
        upper_bound=upper,
        cofactor_coeffs=cofactor,
        steady=steady,
        rate=optimal_rate(network, steady),
    )


def _divide_out_root(coeffs: np.ndarray, root: float) -> np.ndarray:
    """Synthetic division: the quotient of coeffs(X) by (X - root)."""
    n = coeffs.size
    quotient = np.zeros(max(n - 1, 1))
    quotient[-1] = coeffs[-1]
    for k in range(n - 2, 0, -1):
        quotient[k - 1] = coeffs[k] + root * quotient[k]
    return quotient


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
    Every sample is the Riccati flow taken from ``v0`` over its own time,
    one column per sample, so no error accumulates along the trajectory.
    """
    if network.riccati_coefficients is None:
        raise ValueError("the exact flow needs both sides of order <= 2")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    reduction = pivot_reduction(network, v0)
    times = np.linspace(0.0, t_end,
                        step_count(reduction.rate, t_end) + 1)
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
    lead = network.signed_rates[reduction.pivot]
    slopes, offsets = reduction.slopes, reduction.offsets

    def pivot_rate(t, y):
        return [lead * clamped_mass_action(network, slopes * y[0] + offsets)]

    # Cap the step well below the decay scale: in the tail the controller
    # would otherwise grow the step until the per-step decay factor loses
    # relative accuracy, biasing fitted rates and the closed-form check.
    if max_step is None:
        max_step = min(t_end, SAMPLE_SPACING / max(reduction.rate, 1e-12))
    _within_budget(t_end / max_step)

    sol = solve_ivp(pivot_rate, (0.0, t_end),
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
