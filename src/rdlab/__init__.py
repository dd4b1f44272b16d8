"""Numerical lab for reversible mass-action reaction-diffusion systems.

Build a reaction network and a discrete diffusion operator, simulate the
coupled system (or its well-mixed limit), and verify measured exponential
decay rates against the sharp theoretical envelopes.
"""

from .analysis import (EnvelopeInputs, classify_regime, envelope_inputs,
                       exponential_tail_check, fit_decay_rate,
                       fourth_moment_decay_check, two_by_two_envelope)
from .diffusion import (DiscreteDiffusion, build_generator, moment4,
                        propagator, refinement_study, semigroup_apply,
                        variance)
from .kinetics import (ScalarReduction, Trajectory, envelope_constant,
                       exact_decay_residual, exact_trajectory,
                       integrate_reaction, measure_rate, pivot_reduction)
from .network import (NetworkError, ReactionNetwork, SteadyState,
                      build_network, conservation_basis, is_two_by_two,
                      mass_action, normalize_rates, optimal_rate,
                      steady_state)
from .rdsim import (FieldState, RunResult, Scenario, clamped_mass_action,
                    linear_reference)

__all__ = [
    "NetworkError", "ReactionNetwork", "SteadyState", "build_network",
    "normalize_rates", "conservation_basis", "steady_state", "optimal_rate",
    "mass_action", "is_two_by_two",
    "DiscreteDiffusion", "build_generator", "semigroup_apply",
    "propagator", "variance", "moment4", "refinement_study",
    "ScalarReduction", "Trajectory", "pivot_reduction", "integrate_reaction",
    "exact_trajectory",
    "envelope_constant", "exact_decay_residual", "measure_rate",
    "FieldState", "Scenario", "RunResult", "clamped_mass_action",
    "linear_reference",
    "EnvelopeInputs", "fit_decay_rate", "envelope_inputs",
    "two_by_two_envelope", "classify_regime", "fourth_moment_decay_check",
    "exponential_tail_check",
]

__version__ = "0.1.0"
