"""Strang-split integrator for reaction-diffusion fields on the interval.

Each time step is a half step of exact diffusion (through the grid's modal
basis), a reaction substep, and another half step of diffusion.  The
kinetics moves every cell along the drift ``w``, ``v + w s``, with one
scalar extent ``s`` per cell.  When both sides of the reaction have total
order at most 2, the rate along the drift is a quadratic in ``s``, and the
substep is its exact Riccati flow: one mass-action evaluation per step, and
in exact arithmetic it never leaves the nonnegative orthant.  Higher orders
take a classical RK4 step of the clamped kinetics, which evaluates the
mass-action monomials on positive parts.  Either way any undershoot left
after the substep (roundoff, a negative value that came in with the state,
or an RK4 step past its stability limit) is zeroed and accounted in
``clamp_l1``.

``step`` performs one such step.  ``run_batch`` merges the half steps: the
closing half step of one step and the opening half step of the next compose
exactly into one full step of the semigroup, so between samples each step is
the reaction substep plus one full diffusion step: a dense propagator matmul
on the dense eigenbasis, a DCT-II pair on a uniform grid (``diffusion``).  At
a sample the state is taken from a closing half step through the modal basis
while the run continues from the full step.  The per-sample references
(freely diffused conserved combinations and upper-bound profiles) are
synthesised from modal coefficients computed once per run.

``run_batch`` steps several scenarios that share the network, the grid and
the time stepping as one state, ``(species, members * cells)``: the kinetics
of every member is one set of elementwise array operations per step, and
diffusion acts on the stacked ``(members, species, cells)`` view, so every
BLAS call and transform has the shape of a single run's.  Each member's
result is bitwise the result of running it alone.  ``run`` is the batch of
one.  The sampled fields are kept only on request (``fields=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diffusion import DiscreteDiffusion, semigroup_apply
from .network import (ReactionNetwork, SteadyState, conservation_basis,
                      is_two_by_two, steady_state)

__all__ = [
    "FieldState",
    "Scenario",
    "RunResult",
    "BlowUpError",
    "clamped_mass_action",
    "step",
    "run",
    "run_batch",
    "linear_reference",
]

# Any concentration beyond this is a divergence: the a priori bounds keep
# honest solutions within a few multiples of the initial data.
_BLOWUP_LIMIT = 1e6
_TINY = np.finfo(float).tiny


class BlowUpError(RuntimeError):
    """State escaped the a priori bounds; the step diverged."""


@dataclass(frozen=True)
class FieldState:
    """Per-species concentrations on the grid at one time instant."""

    t: float
    v: np.ndarray          # (species, cells)
    clamp_l1: float = 0.0  # accumulated weighted mass removed by clamping


@dataclass(eq=False)
class Scenario:
    """One reaction-diffusion run: operators, initial fields, numerics."""

    network: ReactionNetwork
    diffusion: DiscreteDiffusion
    v0: np.ndarray
    dt: float
    t_end: float
    sample_every: int = 10
    include_reaction: bool = True

    def __post_init__(self):
        self.v0 = np.asarray(self.v0, dtype=float)
        expected = (self.network.n_species, self.diffusion.n_cells)
        if self.v0.shape != expected:
            raise ValueError(f"v0 must have shape {expected}")
        if not np.all(np.isfinite(self.v0)):
            raise ValueError("initial fields must be finite")
        if np.any(self.v0 < 0):
            raise ValueError("initial fields must be nonnegative")
        if np.any(self.initial_means <= 0):
            raise ValueError("every species needs a positive initial mean")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

    @cached_property
    def initial_means(self) -> np.ndarray:
        return self.v0 @ self.diffusion.weights

    @cached_property
    def steady(self) -> SteadyState:
        return steady_state(self.network, self.initial_means)

    @cached_property
    def basis(self) -> np.ndarray:
        return conservation_basis(self.network)

    def initial_state(self) -> FieldState:
        return FieldState(t=0.0, v=self.v0.copy(), clamp_l1=0.0)


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
    one step per column (``kinetics.exact_trajectory`` flows one initial
    state to every sample time at once).
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


def _reaction_substep(network: ReactionNetwork, v: np.ndarray, dt: float,
                      weights: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Reaction step of the kinetics, then zero any undershoot.

    ``v`` holds one or more members side by side, ``(species, members *
    cells)``.  Networks of order at most 2 take the exact flow from the
    clamped state, others an RK4 step of the clamped kinetics.  Either way
    the step adds its increment to the incoming ``v``, so a negative value
    that comes in is zeroed and accounted here with any outgoing
    undershoot.  Returns the new fields and the weighted mass the clamp
    removed from each member, or ``None`` when no value went negative.
    """
    if network.riccati_coefficients is None:
        v = _rk4(network, v, dt)
    else:
        v = _riccati_flow(network, v, dt)
    if not v.min() < 0.0:
        return v, None
    n = weights.size
    removed = np.zeros(v.shape[1] // n)
    for b in range(removed.size):
        cells = slice(b * n, (b + 1) * n)
        negative_mass = float(-(np.minimum(v[:, cells], 0.0) @ weights).sum())
        if negative_mass > 0.0:
            removed[b] = negative_mass
            v[:, cells] = np.maximum(v[:, cells], 0.0)
    return v, removed


def _check_bounds(peak: float, t: float) -> None:
    """Raise unless ``peak``, the largest magnitude in the state, is bounded."""
    # NaN fails the comparison as well as values beyond the limit.
    if not peak <= _BLOWUP_LIMIT:
        raise BlowUpError(f"state left [-{_BLOWUP_LIMIT:g}, {_BLOWUP_LIMIT:g}] "
                          f"at t={t:g}; reduce dt or check the scenario")


def step(state: FieldState, scenario: Scenario) -> FieldState:
    """Advance one Strang step: half diffusion, reaction, half diffusion."""
    basis = scenario.diffusion.basis
    half = 0.5 * scenario.dt
    v = basis.diffuse(state.v, half)
    clamp = state.clamp_l1
    if scenario.include_reaction:
        v, removed = _reaction_substep(scenario.network, v, scenario.dt,
                                       scenario.diffusion.weights)
        if removed is not None:
            clamp += float(removed[0])
    v = basis.diffuse(v, half)
    _check_bounds(np.abs(v).max(), state.t + scenario.dt)
    return FieldState(t=state.t + scenario.dt, v=v, clamp_l1=clamp)


@dataclass(eq=False)
class RunResult:
    """Sampled time series and diagnostics of one run."""

    scenario: Scenario
    times: np.ndarray            # (m,)
    fields: np.ndarray | None    # (m, species, cells) when asked for
    distances: np.ndarray        # (m, species): L2(weights) to steady
    variances: np.ndarray        # (m, species)
    conservation: np.ndarray     # (m, q-1): L2 residual vs diffused combination
    mean_conservation: np.ndarray  # (m, q-1): drift of the weighted means
    min_value: np.ndarray        # (m,)
    clamp_l1: np.ndarray         # (m,) cumulative
    bound_margin: np.ndarray     # (m,) min over species/cells of bound - value
    steady: SteadyState
    snapshots: list = field(default_factory=list)  # [(t, (species, cells))]


def _upper_bound_pairs(network: ReactionNetwork, v0: np.ndarray):
    """Initial profiles whose diffused images bound each species from above.

    For species i and any j drifting the opposite way, the combination
    v_i/w_i - v_j/w_j diffuses freely, and nonnegativity of v_j turns its
    image into a pointwise bound on v_i (scaled by w_i); the tightest j
    wins.
    """
    w = network.signed_rates
    profiles = []
    owners = []
    for i in range(network.n_species):
        rows = []
        for j in range(network.n_species):
            if w[i] * w[j] < 0:
                profiles.append(v0[i] / w[i] - v0[j] / w[j])
                rows.append(len(profiles) - 1)
        owners.append(rows)
    return np.array(profiles), owners   # (n_pairs, cells), per-species rows


class _Recorder:
    """One scenario's samples: references, diagnostics and snapshots."""

    def __init__(self, scenario: Scenario, snapshot_times, fields: bool):
        self.scenario = scenario
        self.combos0 = scenario.basis @ scenario.v0     # (q-1, cells) at t = 0
        self.mean_refs = self.combos0 @ scenario.diffusion.weights
        pair_profiles, self.pair_owners = _upper_bound_pairs(scenario.network,
                                                             scenario.v0)
        # Modal coefficients of every reference profile, analysed once; a
        # sample only damps and synthesises them.
        self.ref_modes = scenario.diffusion.basis.analyse(
            np.concatenate((self.combos0, pair_profiles)))
        self.pending = sorted(float(t) for t in snapshot_times)
        self.fields = [] if fields else None
        self.records = []
        self.snapshots = []
        self.record(0.0, scenario.v0.copy(), 0.0, self.references(0.0))

    def references(self, t: float, leading=None) -> np.ndarray:
        """Synthesise ``leading`` modal rows, then the references at ``t``."""
        diff = self.scenario.diffusion
        rows = self.ref_modes * np.exp(-diff.eigenvalues * t)
        if leading is not None:
            rows = np.concatenate((leading, rows))
        return diff.basis.synthesise(rows)

    def sample(self, t: float, closing: np.ndarray, clamp: float) -> None:
        """Record the state whose closing-half-step modes are ``closing``."""
        n_species = len(closing)
        out = self.references(t, closing)
        # Copy the fields so the record does not pin the whole block.
        self.record(t, out[:n_species].copy(), clamp, out[n_species:])

    def record(self, t: float, v: np.ndarray, clamp: float,
               refs: np.ndarray) -> None:
        scenario = self.scenario
        weights = scenario.diffusion.weights
        w = scenario.network.signed_rates
        deltas = v - scenario.steady.concentrations[:, None]
        dist = np.sqrt((deltas * deltas) @ weights)
        centered = v - (v @ weights)[:, None]
        var = (centered * centered) @ weights

        n_combos = len(self.combos0)
        combos = scenario.basis @ v
        resid = np.sqrt(((combos - refs[:n_combos]) ** 2) @ weights)
        mean_resid = np.abs(combos @ weights - self.mean_refs)

        evolved = refs[n_combos:]
        margin = np.inf
        for i, rows in enumerate(self.pair_owners):
            bound = (w[i] * evolved[rows]).min(axis=0)
            margin = min(margin, float((bound - v[i]).min()))

        self.records.append((t, dist, var, resid, mean_resid, float(v.min()),
                             clamp, margin))
        if self.fields is not None:
            self.fields.append(v)
        pending = self.pending
        while pending and t >= pending[0] - 0.5 * scenario.dt:
            self.snapshots.append((t, v))
            pending.pop(0)

    def result(self) -> RunResult:
        scenario = self.scenario
        times, dist, var, resid, mean_resid, minv, clamp, margin = \
            map(np.array, zip(*self.records))
        return RunResult(
            scenario=scenario,
            times=times,
            fields=None if self.fields is None else np.array(self.fields),
            distances=dist,
            variances=var,
            conservation=resid,
            mean_conservation=mean_resid,
            min_value=minv,
            clamp_l1=clamp,
            bound_margin=margin,
            steady=scenario.steady,
            snapshots=self.snapshots,
        )


def run_batch(scenarios, snapshot_times=(), fields: bool = False) -> list:
    """Integrate several scenarios as one state; one ``RunResult`` each.

    The scenarios must share the network and the grid (the same objects),
    ``dt``, ``t_end``, ``sample_every`` and ``include_reaction``; they
    differ in their initial fields.  Each member keeps its own clamp
    accounting, samples and snapshots, and its result is bitwise that of
    running it alone.  A blow-up of any member raises ``BlowUpError``.

    After one opening half step, each step is the reaction substep followed
    by the full-step diffusion step; a sample takes its state from the
    closing half step, applied through the modal basis, and the run
    continues from the full step of the pre-closing state, so the
    trajectory does not depend on the sampling cadence and equals
    iterating ``step`` up to roundoff.  The blow-up guard looks at the
    state after each reaction substep; the diffusion that follows is Markov
    and cannot raise its maximum.

    The horizon is rounded to a whole number of steps.  Snapshots are taken
    at the first sample at or after each requested time.  The sampled
    fields are kept only when ``fields`` is true; otherwise
    ``RunResult.fields`` is ``None``.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("need at least one scenario")
    first = scenarios[0]
    numerics = (first.dt, first.t_end, first.sample_every,
                first.include_reaction)
    for other in scenarios[1:]:
        if (other.network is not first.network
                or other.diffusion is not first.diffusion
                or (other.dt, other.t_end, other.sample_every,
                    other.include_reaction) != numerics):
            raise ValueError("batched scenarios must share the network, the "
                             "grid, dt, t_end, sample_every and "
                             "include_reaction")
    network, diff = first.network, first.diffusion
    dt, t_end, sample_every, include_reaction = numerics
    modal = diff.basis
    weights = diff.weights
    n_species, n_cells = network.n_species, diff.n_cells
    half_damp = np.exp(-0.5 * dt * diff.eigenvalues)
    n_steps = int(round(t_end / dt))
    recorders = [_Recorder(s, snapshot_times, fields) for s in scenarios]

    def members(u: np.ndarray) -> np.ndarray:
        """The ``(members, species, cells)`` view of the state."""
        return u.reshape(n_species, len(scenarios), n_cells).transpose(1, 0, 2)

    full_step = modal.stepper(dt)
    if len(scenarios) == 1:
        advance = full_step     # the state is already one member's fields
    else:
        def advance(u: np.ndarray) -> np.ndarray:
            return full_step(members(u)).transpose(1, 0, 2).reshape(
                n_species, -1)

    u = np.concatenate([modal.diffuse(s.v0, 0.5 * dt) for s in scenarios],
                       axis=1)
    clamp = np.zeros(len(scenarios))
    t = 0.0
    for k in range(1, n_steps + 1):
        t += dt
        if include_reaction:
            u, removed = _reaction_substep(network, u, dt, weights)
            if removed is not None:
                clamp += removed
            # The substep leaves u nonnegative or NaN, which max propagates.
            _check_bounds(u.max(), t)
        else:
            _check_bounds(np.abs(u).max(), t)
        if k % sample_every == 0 or k == n_steps:
            for recorder, block, c in zip(recorders, members(u), clamp):
                recorder.sample(t, modal.analyse(block) * half_damp, float(c))
        if k < n_steps:
            u = advance(u)
    return [recorder.result() for recorder in recorders]


def run(scenario: Scenario, snapshot_times=(), fields: bool = False) -> RunResult:
    """Integrate one scenario with merged half steps (``run_batch`` of one)."""
    return run_batch([scenario], snapshot_times, fields)[0]


def linear_reference(scenario: Scenario, times, rtol: float = 1e-10,
                     atol: float = 1e-13) -> np.ndarray:
    """Independent solution for species 0 of a two-by-two scenario.

    In the two-by-two case the first species solves a *linear* nonautonomous
    equation whose coefficients are freely diffused combinations of the
    initial data; integrating it with a stiff solver gives an oracle that
    shares no code path with the split nonlinear stepper.  Returns the
    species-0 field at the requested times, shape ``(len(times), cells)``.
    """
    if not is_two_by_two(scenario.network):
        raise ValueError("the linear reference applies to the two-by-two "
                         "reaction only")
    from scipy.integrate import solve_ivp

    diff = scenario.diffusion
    gen = diff.generator
    a0, b0, c0, d0 = scenario.v0

    def flow(profile):
        return lambda t: semigroup_apply(diff, profile, t)

    first_pair = flow(a0 + c0)
    second_pair = flow(a0 + d0)
    total = flow(a0 + b0 + c0 + d0)

    def rhs(t, y):
        return gen @ y - y * total(t) + first_pair(t) * second_pair(t)

    def jac(t, y):
        return gen - np.diag(total(t))

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), a0, method="BDF", jac=jac,
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"linear reference integration failed: {sol.message}")
    return sol.y.T
