"""Rate fitting and the theoretical envelopes that measured runs must obey."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiscreteDiffusion, moment4
from .network import ReactionNetwork, is_two_by_two, steady_state

__all__ = [
    "EnvelopeInputs",
    "DegenerateWindowError",
    "fit_decay_rate",
    "envelope_inputs",
    "two_by_two_envelope",
    "classify_regime",
    "fourth_moment_decay_check",
    "exponential_tail_check",
]

# Two rates closer than this are treated as the degenerate equal-rate case,
# which carries a linear-in-t prefactor instead of a constant one.
_EQUAL_RATE_TOL = 1e-9


class DegenerateWindowError(ValueError):
    """The fit window contains no usable decay signal."""


def fit_decay_rate(times, values, window_fraction: float = 0.6,
                   floor: float = 1e-12) -> tuple[float, float]:
    """Least-squares decay rate of a positive, eventually decreasing series.

    Only samples above ``floor`` enter; of those, only the final
    ``window_fraction`` is fitted (log-linear least squares), so early
    transients and the roundoff floor are both excluded.  Returns
    ``(rate, r_squared)`` where a positive rate means decay.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")

    above = np.flatnonzero(values > floor)
    if above.size < 3:
        raise DegenerateWindowError("fewer than 3 samples above the floor")
    count = max(3, int(np.ceil(window_fraction * above.size)))
    window = above[-count:]

    x = times[window]
    y = np.log(values[window])
    if np.ptp(x) == 0:
        raise DegenerateWindowError("fit window has zero time span")
    total = float(np.sum((y - y.mean()) ** 2))
    if total <= 1e-300:
        raise DegenerateWindowError("series is constant over the fit window")

    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sum((y - (slope * x + intercept)) ** 2))
    r2 = 1.0 - residual / total
    return float(-slope), float(min(max(r2, 0.0), 1.0))


@dataclass(frozen=True)
class EnvelopeInputs:
    """Initial-data functionals entering the two-by-two decay envelope."""

    initial_distance: np.ndarray   # per-species L2(weights) distance to steady
    total_mass: float              # weighted mean of the summed initial data
    quartic_moment: float          # sqrt of the 4th moment of the summed data
    gap_constant: float


def envelope_inputs(network: ReactionNetwork, diff: DiscreteDiffusion,
                    v0) -> EnvelopeInputs:
    """Assemble envelope inputs from initial fields (two-by-two only)."""
    if not is_two_by_two(network):
        raise ValueError("the decay envelope applies to the two-by-two "
                         "reaction A + B <-> C + D with unit rates")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (network.n_species, diff.n_cells):
        raise ValueError("v0 must be a (species, cells) matrix")
    means = v0 @ diff.weights
    steady = steady_state(network, means)
    deltas = v0 - steady.concentrations[:, None]
    dist0 = np.sqrt((deltas * deltas) @ diff.weights)
    total = v0.sum(axis=0)
    return EnvelopeInputs(
        initial_distance=dist0,
        total_mass=float(means.sum()),
        quartic_moment=float(np.sqrt(moment4(diff, total))),
        gap_constant=diff.gap_constant,
    )


def classify_regime(inputs: EnvelopeInputs) -> str:
    gap_rate = 1.0 / (8.0 * inputs.gap_constant)
    if abs(inputs.total_mass - gap_rate) < _EQUAL_RATE_TOL:
        return "mass_at_gap"
    if inputs.total_mass < gap_rate:
        return "mass_below_gap"
    return "mass_above_gap"


def two_by_two_envelope(inputs: EnvelopeInputs, t) -> np.ndarray:
    """Per-species decay envelope at time(s) ``t``.

    The distance of each species to its steady value is bounded by a
    prefactor times ``exp(-min(total_mass, 1/(8 gap_constant)) * t)``; when
    the two rates coincide the prefactor grows linearly in ``t`` instead.
    Returns shape ``t.shape + (4,)``.
    """
    t = np.asarray(t, dtype=float)
    gap_rate = 1.0 / (8.0 * inputs.gap_constant)
    mass = inputs.total_mass
    if abs(mass - gap_rate) < _EQUAL_RATE_TOL:
        base = np.multiply.outer(np.exp(-mass * t), inputs.initial_distance)
        growth = 5.0 * inputs.quartic_moment * t * np.exp(-mass * t)
        return base + np.multiply.outer(growth, np.ones_like(inputs.initial_distance))
    prefactor = inputs.initial_distance + abs(5.0 * inputs.quartic_moment
                                              / (mass - gap_rate))
    return np.multiply.outer(np.exp(-min(mass, gap_rate) * t), prefactor)


def fourth_moment_decay_check(diff: DiscreteDiffusion, f, t_samples,
                              slack: float = 1e-10) -> tuple[bool, np.ndarray]:
    """Check the semigroup's fourth-moment decay bound on grid functions.

    ``f`` is one nonnegative grid function or a ``(k, n)`` stack of them.
    For every function and every sample time, the centered fourth moment
    of the evolved function must stay below ``4 exp(-t / (2 gap_constant))``
    times the raw fourth moment of that function.  The whole stack is
    evolved with one ``basis.diffuse`` call per time.  Returns ``(passed,
    margins)`` with ``margins = bound - measured``, shape ``f.shape[:-1] +
    (len(t_samples),)``; ``passed`` holds when every function meets its
    bound at every time.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("the fourth-moment bound is applied to nonnegative "
                         "grid functions")
    t_samples = np.asarray(t_samples, dtype=float)
    if np.any(t_samples < 0):
        raise ValueError("time must be nonnegative")
    weights = diff.weights
    mean = (f @ weights)[..., None]
    raw4 = (f ** 4) @ weights
    measured = []
    for t in t_samples:
        centered = diff.basis.diffuse(f, float(t))
        centered -= mean
        # Squared twice: ``** 4`` calls pow(), about 20 times slower on
        # negative bases.
        centered *= centered
        centered *= centered
        measured.append(centered @ weights)
    measured = np.stack(measured, axis=-1)
    bound = (4.0 * np.exp(-t_samples / (2.0 * diff.gap_constant))
             * raw4[..., None])
    passed = bool(np.all(measured <= bound * (1.0 + slack)))
    return passed, bound - measured


def exponential_tail_check(network: ReactionNetwork, times, series,
                           r2_min: float = 0.999,
                           window_fraction: float = 0.6,
                           floor: float = 1e-11) -> tuple[float, float, bool]:
    """Qualitative exponential-decay verdict for a general network.

    Applies only when every species appears on a single side of the
    reaction; otherwise the scenario is rejected.  Passes when the
    log-distance tail is affine (r^2 >= ``r2_min``) with positive rate.
    Returns ``(rate, r2, passed)``.
    """
    if np.any(network.reactants * network.products != 0):
        raise ValueError("qualitative decay check requires every species to "
                         "appear on only one side of the reaction")
    rate, r2 = fit_decay_rate(times, series, window_fraction, floor)
    return rate, r2, bool(r2 >= r2_min and rate > 0)
