"""Discrete divergence-form diffusion on an interval with zero-flux ends.

The generator is the finite-volume discretization of

    L f = e^{psi} d/dx ( e^{-psi} a(x) df/dx )        on [0, length],

with no-flux (Neumann) boundary faces.  Divergence form makes the discrete
operator exactly invariant and symmetric with respect to its equilibrium
weights ``mu_i ~ e^{-psi(x_i)}``, so the semigroup can be applied exactly
through a (weights-orthonormal) modal basis.  The matrix has nonnegative
off-diagonal entries and zero row sums, hence ``exp(tL)`` is a positivity-
and mass-preserving (Markov) propagator.

The generator is tridiagonal and is kept as its two off-diagonal bands.
Every spectral operation goes through one modal basis with two backings:

* ``DenseBasis``: the weighted eigenvectors from a tridiagonal eigensolve,
  held as an n x n matrix.  It serves every grid with a non-constant
  potential or diffusivity, and uniform grids below ``DCT_MIN_CELLS``,
  where a dense matmul beats two transforms.
* ``CosineBasis``: on a uniform grid (constant psi and a) the orthonormal
  DCT-II diagonalises the cell-centred Neumann generator exactly, with
  eigenvalues ``(4 a / h^2) sin^2(pi k / 2n)``.  No eigensolve and no
  n x n array; a semigroup application costs O(n log n).

The dense ``generator`` and ``eigenvectors`` are built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DCT_MIN_CELLS",
    "DENSE_MAX_CELLS",
    "CosineBasis",
    "DenseBasis",
    "DiscreteDiffusion",
    "GapStudy",
    "build_generator",
    "semigroup_apply",
    "propagator",
    "variance",
    "moment4",
    "refinement_study",
]

# Uniform grids with at least this many cells use the DCT-II basis.  One
# full diffusion step of 4 species on a 2-core Intel Xeon virtual machine,
# 1 BLAS thread: dense 20-24 us against DCT 32-48 us at n = 300, and
# 61-100 us against 33-50 us at n = 320; the dense matmul jumps 3-4x in
# cost between n = 300 and n = 310.
DCT_MIN_CELLS = 320
# Most cells of a grid that needs the dense basis: each of its n x n arrays
# takes 8 n^2 bytes, 128 MB at this limit.
DENSE_MAX_CELLS = 4000


class DenseBasis:
    """Weighted eigenbasis held as a dense matrix.

    Grid functions are rows (the last axis is the grid); modal coefficients
    are rows too.  ``vectors`` has the basis functions as columns: column 0
    is exactly 1 and the others have weighted mean zero to roundoff.
    """

    def __init__(self, weights: np.ndarray, eigenvalues: np.ndarray,
                 vectors: np.ndarray):
        self.weights = weights
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    def analyse(self, f: np.ndarray) -> np.ndarray:
        """Modal coefficients of the rows of ``f``."""
        return (f * self.weights) @ self.vectors

    def synthesise(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid functions with the given modal coefficients."""
        return coeffs @ self.vectors.T

    def diffuse(self, f: np.ndarray, t: float) -> np.ndarray:
        """The time-``t`` semigroup applied to the rows of ``f``."""
        return self.synthesise(self.analyse(f) * np.exp(-self.eigenvalues * t))

    def operator(self, t: float) -> np.ndarray:
        """Dense matrix of the time-``t`` semigroup.

        Built as ``(F @ F.T) * weights`` with ``F = E * exp(-lambda t / 2)``:
        numpy dispatches the symmetric product to BLAS syrk and the column
        scaling is done in place, so the only temporaries are ``F`` and the
        result.
        """
        half = self.vectors * np.exp(-0.5 * t * self.eigenvalues)
        matrix = half @ half.T
        matrix *= self.weights
        return matrix

    def stepper(self, t: float):
        """Function applying the time-``t`` semigroup to rows, for reuse."""
        matrix = self.operator(t)
        return lambda f: f @ matrix.T


class CosineBasis:
    """Orthonormal DCT-II basis of a uniform grid (``scipy.fft``).

    The coefficients follow the dense convention: mode ``k`` is
    ``sqrt(2) cos(pi k (i + 1/2) / n)`` and mode 0 is 1, so coefficient 0 is
    the weighted mean.  ``diffuse`` damps only the fluctuation ``f - <f>``
    and adds the mean back: the ortho DCT's mode-0 scaling is inexact in
    floating point, and through it the mean of a repeatedly diffused field
    drifts by about 6e-16 per application.
    """

    def __init__(self, weights: np.ndarray, eigenvalues: np.ndarray):
        from scipy import fft
        self._fft = fft
        self.weights = weights
        self.eigenvalues = eigenvalues
        self._scale = math.sqrt(weights.size)

    def analyse(self, f: np.ndarray) -> np.ndarray:
        return self._fft.dct(f, norm="ortho") / self._scale

    def synthesise(self, coeffs: np.ndarray) -> np.ndarray:
        return self._fft.idct(coeffs, norm="ortho") * self._scale

    def _damped(self, f: np.ndarray, damp: np.ndarray) -> np.ndarray:
        mean = (f @ self.weights)[..., None]
        modes = self._fft.dct(f - mean, norm="ortho")
        modes *= damp
        out = self._fft.idct(modes, norm="ortho", overwrite_x=True)
        out += mean
        return out

    def diffuse(self, f: np.ndarray, t: float) -> np.ndarray:
        return self._damped(f, np.exp(-self.eigenvalues * t))

    def operator(self, t: float) -> np.ndarray:
        # Row i of the diffused identity is column i of the operator.
        return self.diffuse(np.eye(self.weights.size), t).T

    def stepper(self, t: float):
        damp = np.exp(-self.eigenvalues * t)
        return lambda f: self._damped(f, damp)

    @cached_property
    def vectors(self) -> np.ndarray:
        n = self.weights.size
        phase = (np.pi / n) * np.outer(np.arange(n) + 0.5, np.arange(n))
        vectors = math.sqrt(2.0) * np.cos(phase)
        vectors[:, 0] = 1.0
        return vectors


@dataclass(frozen=True)
class DiscreteDiffusion:
    """Immutable grid operator with its equilibrium measure and spectrum.

    Attributes
    ----------
    upper, lower : (n - 1,) arrays
        The generator's bands: the rate from cell i to cell i + 1 and from
        cell i + 1 to cell i.  The diagonal makes the row sums zero.
    weights : (n,) array
        Invariant probability weights, ``sum == 1``.
    eigenvalues : (n,) array
        Spectrum of ``-L``, ascending; ``eigenvalues[0] == 0``.
    basis : DenseBasis or CosineBasis
        The weights-orthonormal modal basis that applies the semigroup.
    gap_constant : float
        ``1 / (2 * eigenvalues[1])``; the variance of any grid function
        decays at least like ``exp(-t / gap_constant)`` under the semigroup.
    kernel_residual : float
        ``|lambda_0|`` as returned by the eigensolver, before the constant
        mode is pinned to exactly zero; 0 on the DCT basis.
    """

    n_cells: int
    domain_length: float
    cell_centers: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    basis: DenseBasis | CosineBasis
    gap_constant: float
    kernel_residual: float

    @cached_property
    def generator(self) -> np.ndarray:
        """The discrete operator L as a dense (n, n) matrix."""
        gen = np.zeros((self.n_cells, self.n_cells))
        idx = np.arange(self.n_cells - 1)
        gen[idx, idx + 1] = self.upper
        gen[idx + 1, idx] = self.lower
        gen[idx, idx] -= self.upper
        gen[idx + 1, idx + 1] -= self.lower
        return gen

    @property
    def eigenvectors(self) -> np.ndarray:
        """(n, n) basis functions as columns, orthonormal in the weights."""
        return self.basis.vectors


def _sample(fn, x, default: float) -> np.ndarray:
    if fn is None:
        return np.full(x.shape, default)
    return np.asarray(fn(x), dtype=float) * np.ones_like(x)


def _dense_basis(upper, lower, cond, rho_centers, weights):
    """Eigensolve the symmetrised bands; returns the basis and |lambda_0|."""
    from scipy.linalg import eigh_tridiagonal

    # Similarity transform by sqrt(weights) makes the problem symmetric
    # tridiagonal; eigenvalues are those of -L, ascending.
    diag = np.zeros(weights.size)
    diag[:-1] -= upper
    diag[1:] -= lower
    offdiag = -cond / np.sqrt(rho_centers[:-1] * rho_centers[1:])
    values, eigenvectors = eigh_tridiagonal(-diag, offdiag)
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
    return DenseBasis(weights, eigenvalues, eigenvectors), kernel_residual


def build_generator(n: int, domain_length: float = 1.0, potential=None,
                    diffusivity=None) -> DiscreteDiffusion:
    """Assemble the generator's bands, its invariant weights and modal basis.

    Parameters
    ----------
    n : int
        Number of grid cells (>= 3).
    domain_length : float
        Length of the interval.
    potential, diffusivity : callables or None
        Vectorized functions of position; ``None`` means 0 and 1, giving
        the plain Neumann Laplacian with uniform weights.  When both are
        constant on the grid and ``n >= DCT_MIN_CELLS`` the basis is the
        DCT-II; otherwise it is the dense eigenbasis.
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
    upper = cond / rho_centers[:-1]    # coupling of cell i to cell i+1
    lower = cond / rho_centers[1:]     # coupling of cell i+1 to cell i
    weights = rho_centers / rho_centers.sum()

    uniform = (np.all(psi_centers == psi_centers[0])
               and np.all(psi_faces == psi_centers[0])
               and np.all(a_faces == a_faces[0]))
    if uniform and n >= DCT_MIN_CELLS:
        eigenvalues = (4.0 * a_faces[0] / h**2) * np.sin(
            (0.5 * np.pi / n) * np.arange(n)) ** 2
        basis = CosineBasis(weights, eigenvalues)
        kernel_residual = 0.0
    else:
        basis, kernel_residual = _dense_basis(upper, lower, cond, rho_centers,
                                              weights)
        eigenvalues = basis.eigenvalues
    if eigenvalues[1] <= 0:
        raise RuntimeError("vanishing spectral gap; grid is disconnected")

    return DiscreteDiffusion(
        n_cells=n,
        domain_length=float(domain_length),
        cell_centers=centers,
        upper=upper,
        lower=lower,
        weights=weights,
        eigenvalues=eigenvalues,
        basis=basis,
        gap_constant=float(1.0 / (2.0 * eigenvalues[1])),
        kernel_residual=kernel_residual,
    )


def semigroup_apply(diff: DiscreteDiffusion, f, t: float) -> np.ndarray:
    """Evolve grid function(s) ``f`` for time ``t`` under the semigroup.

    Spectral synthesis: expand in the weights-orthonormal basis, damp mode
    ``j`` by ``exp(-lambda_j t)``, resynthesize.  Mode 0 is undamped, so the
    weighted mean of ``f`` is preserved.  ``f`` may be a vector of length
    ``n`` or an ``(n, k)`` matrix of ``k`` independent functions.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        return diff.basis.diffuse(f, t)
    return diff.basis.diffuse(f.T, t).T


def propagator(diff: DiscreteDiffusion, t: float) -> np.ndarray:
    """Dense matrix of the time-``t`` semigroup (for repeated application)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return diff.basis.operator(t)


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
