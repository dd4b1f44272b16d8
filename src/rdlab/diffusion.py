"""Discrete divergence-form diffusion on an interval with zero-flux ends.

The generator is the finite-volume discretization of

    L f = e^{psi} d/dx ( e^{-psi} a(x) df/dx )        on [0, length],

with no-flux (Neumann) boundary faces.  Divergence form makes the discrete
operator exactly invariant and symmetric with respect to its equilibrium
weights ``mu_i ~ e^{-psi(x_i)}``, so the semigroup can be applied exactly
through the (weights-orthonormal) eigendecomposition.  The matrix has
nonnegative off-diagonal entries and zero row sums, hence ``exp(tL)`` is a
positivity- and mass-preserving (Markov) propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "DiscreteDiffusion",
    "GapStudy",
    "build_generator",
    "spectral_gap",
    "semigroup_apply",
    "propagator",
    "variance",
    "moment4",
    "refinement_study",
]


@dataclass(frozen=True)
class DiscreteDiffusion:
    """Immutable grid operator with its equilibrium measure and spectrum.

    Attributes
    ----------
    generator : (n, n) array
        The discrete operator L.
    weights : (n,) array
        Invariant probability weights, ``sum == 1``.
    eigenvalues : (n,) array
        Spectrum of ``-L``, ascending; ``eigenvalues[0] == 0``.
    eigenvectors : (n, n) array
        Columns orthonormal in the weighted inner product; column 0 is
        exactly 1 and the others have weighted mean zero to roundoff.
    gap_constant : float
        ``1 / (2 * eigenvalues[1])``; the variance of any grid function
        decays at least like ``exp(-t / gap_constant)`` under the semigroup.
    kernel_residual : float
        ``|lambda_0|`` as returned by the eigensolver, before the constant
        mode is pinned to exactly zero.
    """

    n_cells: int
    domain_length: float
    cell_centers: np.ndarray
    potential: np.ndarray
    face_diffusivity: np.ndarray
    generator: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap_constant: float
    kernel_residual: float


def _sample(fn, x, default: float) -> np.ndarray:
    if fn is None:
        return np.full(x.shape, default)
    return np.asarray(fn(x), dtype=float) * np.ones_like(x)


def build_generator(n: int, domain_length: float = 1.0, potential=None,
                    diffusivity=None) -> DiscreteDiffusion:
    """Assemble the generator, its invariant weights and eigendecomposition.

    Parameters
    ----------
    n : int
        Number of grid cells (>= 3).
    domain_length : float
        Length of the interval.
    potential, diffusivity : callables or None
        Vectorized functions of position; ``None`` means 0 and 1, giving
        the plain Neumann Laplacian with uniform weights.
    """
    if n < 3:
        raise ValueError("need at least 3 grid cells")
    if domain_length <= 0:
        raise ValueError("domain_length must be positive")

    h = domain_length / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h

    psi_centers = _sample(potential, centers, 0.0)
    psi_faces = _sample(potential, faces, 0.0)
    a_faces = _sample(diffusivity, faces, 1.0)
    if np.any(a_faces <= 0) or not np.all(np.isfinite(a_faces)):
        raise ValueError("diffusivity must be positive and finite on the domain")
    if not np.all(np.isfinite(psi_centers)):
        raise ValueError("potential must be finite on the domain")

    rho_centers = np.exp(-psi_centers)
    rho_faces = np.exp(-psi_faces)

    # Interior face conductances; boundary faces carry zero flux.
    cond = rho_faces[1:-1] * a_faces[1:-1] / h**2

    gen = np.zeros((n, n))
    up = cond / rho_centers[:-1]    # coupling of cell i to cell i+1
    down = cond / rho_centers[1:]   # coupling of cell i+1 to cell i
    idx = np.arange(n - 1)
    gen[idx, idx + 1] = up
    gen[idx + 1, idx] = down
    gen[idx, idx] -= up
    gen[idx + 1, idx + 1] -= down

    weights = rho_centers / rho_centers.sum()

    # Similarity transform by sqrt(weights) makes the problem symmetric
    # tridiagonal; eigenvalues are those of -L, ascending.
    diag = -np.diag(gen)
    offdiag = -cond / np.sqrt(rho_centers[:-1] * rho_centers[1:])
    values, vectors = eigh_tridiagonal(diag, offdiag)
    eigenvectors = vectors
    eigenvectors /= np.sqrt(weights)[:, None]

    kernel_residual = abs(float(values[0]))
    if kernel_residual > max(1e-10, 64 * np.finfo(float).eps * values[-1]):
        raise RuntimeError("constant mode is not in the numerical kernel")
    eigenvalues = np.maximum(values, 0.0)
    eigenvalues[0] = 0.0
    # The solver's constant mode is constant only to ~1e-12.  Pin it to
    # exactly 1 and remove the weighted mean from every other mode (one
    # rank-1 update), so the fluctuation modes are weighted-orthogonal to
    # constants and the semigroup fixes constants and means to roundoff.
    eigenvectors -= weights @ eigenvectors
    eigenvectors[:, 0] = 1.0
    if eigenvalues[1] <= 0:
        raise RuntimeError("vanishing spectral gap; grid is disconnected")

    return DiscreteDiffusion(
        n_cells=n,
        domain_length=float(domain_length),
        cell_centers=centers,
        potential=psi_centers,
        face_diffusivity=a_faces,
        generator=gen,
        weights=weights,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        gap_constant=float(1.0 / (2.0 * eigenvalues[1])),
        kernel_residual=kernel_residual,
    )


def spectral_gap(diff: DiscreteDiffusion) -> float:
    """Gap constant ``1 / (2 lambda_1)`` of the discrete operator."""
    if diff.eigenvalues[1] <= 0:
        raise ValueError("operator has no spectral gap")
    return diff.gap_constant


def semigroup_apply(diff: DiscreteDiffusion, f, t: float) -> np.ndarray:
    """Evolve grid function(s) ``f`` for time ``t`` under the semigroup.

    Spectral synthesis: expand in the weights-orthonormal eigenbasis, damp
    mode ``j`` by ``exp(-lambda_j t)``, resynthesize.  Mode 0 is undamped,
    so the weighted mean of ``f`` is preserved.  ``f`` may be a vector of
    length ``n`` or an ``(n, k)`` matrix of ``k`` independent functions.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    f = np.asarray(f, dtype=float)
    damp = np.exp(-diff.eigenvalues * t)
    if f.ndim == 1:
        coeffs = diff.eigenvectors.T @ (diff.weights * f)
        return diff.eigenvectors @ (damp * coeffs)
    coeffs = diff.eigenvectors.T @ (diff.weights[:, None] * f)
    return diff.eigenvectors @ (damp[:, None] * coeffs)


def propagator(diff: DiscreteDiffusion, t: float) -> np.ndarray:
    """Dense matrix of the time-``t`` semigroup (for repeated application).

    Built as ``(F @ F.T) * weights`` with ``F = E * exp(-lambda t / 2)``:
    the symmetric product is one rank-k update (numpy dispatches ``F @ F.T``
    to BLAS syrk) and the column scaling is done in place, so the only
    temporaries are ``F`` and the result.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    half = diff.eigenvectors * np.exp(-0.5 * t * diff.eigenvalues)
    matrix = half @ half.T
    matrix *= diff.weights
    return matrix


def variance(diff: DiscreteDiffusion, f) -> float:
    """Weighted central second moment of a grid function."""
    f = np.asarray(f, dtype=float)
    mean = float(diff.weights @ f)
    centered = f - mean
    return float(diff.weights @ (centered * centered))


def moment4(diff: DiscreteDiffusion, f) -> float:
    """Weighted raw fourth moment of a grid function."""
    f = np.asarray(f, dtype=float)
    return float(diff.weights @ f**4)


@dataclass(frozen=True)
class GapStudy:
    """Grid-refinement record for the gap eigenvalue."""

    cells: tuple[int, ...]
    gap_eigenvalues: np.ndarray
    gap_constants: np.ndarray
    extrapolated_eigenvalue: float
    extrapolated_gap_constant: float
    observed_orders: np.ndarray


def refinement_study(cells, domain_length: float = 1.0, potential=None,
                     diffusivity=None) -> GapStudy:
    """Compute the gap eigenvalue on successive grids and extrapolate.

    ``cells`` must be increasing; Richardson extrapolation of the last two
    grids assumes second-order convergence, which the ``observed_orders``
    entries (one per consecutive refinement triple) let the caller verify.
    """
    cells = tuple(int(c) for c in cells)
    if len(cells) < 2 or any(b <= a for a, b in zip(cells, cells[1:])):
        raise ValueError("cells must be an increasing sequence of length >= 2")

    lam = np.array([
        build_generator(c, domain_length, potential, diffusivity).eigenvalues[1]
        for c in cells
    ])

    orders = []
    for k in range(len(cells) - 2):
        r1 = cells[k + 1] / cells[k]
        d1 = abs(lam[k] - lam[k + 1])
        d2 = abs(lam[k + 1] - lam[k + 2])
        if d2 == 0:
            orders.append(np.nan)
        else:
            orders.append(np.log(d1 / d2) / np.log(r1))
    ratio = cells[-1] / cells[-2]
    extrapolated = (ratio**2 * lam[-1] - lam[-2]) / (ratio**2 - 1.0)

    return GapStudy(
        cells=cells,
        gap_eigenvalues=lam,
        gap_constants=1.0 / (2.0 * lam),
        extrapolated_eigenvalue=float(extrapolated),
        extrapolated_gap_constant=float(1.0 / (2.0 * extrapolated)),
        observed_orders=np.array(orders),
    )
