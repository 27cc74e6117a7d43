"""Linearized quantum noise below threshold: drift, diffusion, spectra.

Fluctuations live in the doubled phase space with independent variables
ordered (d_beta, d_beta_dag, d_alpha, d_alpha_dag).  The equations are
written as d[da]/dt = -A [da] + D^(1/2) [eta].  At the imaginary-axis
critical point beta0 = i beta_i0, alpha0 = i alpha_i0 both A and D are real
by construction, and D = diag(-2 alpha_i0, -2 alpha_i0, 0, 0) is positive
semidefinite because alpha_i0 = -2 beta_i0^2 / kappa <= 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_forms import FixedPoint, fixed_point, hopf_threshold
from .csvio import write_csv
from .errors import DomainError, NumericalError, ThresholdError
from .model import SystemParams


@dataclass(frozen=True)
class LinearNoiseModel:
    """Drift A and diffusion D of the linearized stochastic equations."""

    drift_A: np.ndarray
    diffusion_D: np.ndarray
    fixed_point: FixedPoint


def linear_noise_model(params: SystemParams) -> LinearNoiseModel:
    """Assemble the linearized noise model at the critical point.

    Valid only below threshold; a drive at or beyond epsilon_h raises
    ThresholdError (the linearization has a vanishing eigenvalue there
    and the stationary spectrum is undefined).  Within 1% of threshold
    a warning is emitted.
    """
    epsilon = params.epsilon
    eps_h = hopf_threshold(params.kappa, params.gamma).epsilon_h
    if abs(epsilon) >= eps_h:
        raise ThresholdError(
            f"|epsilon|={abs(epsilon):.6g} is at or beyond the threshold "
            f"epsilon_h={eps_h:.6g}; the linearized spectrum is undefined"
        )
    if abs(epsilon) > 0.99 * eps_h:
        warnings.warn(
            f"epsilon={epsilon:.6g} is within 1% of epsilon_h={eps_h:.6g}; "
            "the linearized model is about to fail",
            stacklevel=2,
        )

    fp = fixed_point(params)
    b = fp.beta_i0
    a = fp.alpha_i0
    g2 = params.gamma / 2.0
    k2 = params.kappa / 2.0
    # Stability matrix of the doubled-space equations; A is its negative.
    M = np.array([
        [-g2, -2.0 * a, 2.0 * b, 0.0],
        [-2.0 * a, -g2, 0.0, 2.0 * b],
        [-2.0 * b, 0.0, -k2, 0.0],
        [0.0, -2.0 * b, 0.0, -k2],
    ])
    D = np.diag([-2.0 * a, -2.0 * a, 0.0, 0.0])
    return LinearNoiseModel(drift_A=-M, diffusion_D=D, fixed_point=fp)


def spectrum(model: LinearNoiseModel, omega) -> np.ndarray:
    """Stationary spectrum matrix S(omega) of normally-ordered moments.

    S = (1/2pi) (i w I + A)^(-1) D (-i w I + A^T)^(-1), evaluated with
    two linear solves rather than explicit inverses.  ``omega`` is a
    scalar, giving shape (4, 4), or an (n, 1, 1) grid, giving (n, 4, 4)
    from one stacked solve per factor.
    """
    A = model.drift_A
    D = model.diffusion_D
    I = np.eye(4)
    try:
        M = 1j * omega * I + A
        # D gets M's batch shape: numpy < 2.0 would read a (4, 4) right-hand
        # side of an (n, 4, 4) stack as n vectors.
        X = np.linalg.solve(M, np.broadcast_to(D.astype(complex), M.shape))
        # S = X (-i w I + A^T)^(-1); transpose once to reuse solve.
        S = np.swapaxes(np.linalg.solve(-1j * omega * I + A, np.swapaxes(X, -1, -2)), -1, -2)
    except np.linalg.LinAlgError as exc:
        if np.ndim(omega):  # a stacked solve does not say which point was singular
            for om in np.ravel(omega):
                spectrum(model, om)
        raise NumericalError(f"singular spectrum solve at omega={omega}") from exc
    return S / (2.0 * math.pi)


@dataclass(frozen=True)
class SpectrumResult:
    omega_grid: np.ndarray
    S: np.ndarray  # shape (n, 4, 4), complex


def spectrum_scan(model: LinearNoiseModel, omega_min: float, omega_max: float,
                  n_points: int) -> SpectrumResult:
    """Evaluate S(omega) on a uniform grid.

    The whole grid goes through one ``spectrum`` call: each of its two
    solves is a single ``np.linalg.solve`` over the (n, 4, 4) stack, the
    same LAPACK solve per point as a scalar call, so every S(omega) is
    bit-identical to ``spectrum(model, omega)``.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    if not (0.0 < omega_max - omega_min < math.inf):  # an infinite width fills the grid with nan
        raise DomainError(f"omega_max - omega_min must be finite and > 0, got "
                          f"omega_min={omega_min:g}, omega_max={omega_max:g}")
    grid = np.linspace(omega_min, omega_max, int(n_points))
    S = spectrum(model, grid[:, None, None])
    return SpectrumResult(omega_grid=grid, S=S)


@dataclass(frozen=True)
class SpectralPeak:
    omega_peak: float
    height: float
    fwhm: float


def spectral_peak(result: SpectrumResult, i: int = 2, j: int = 2) -> SpectralPeak:
    """Locate the peak of |S_ij| on the positive-omega half-grid.

    Indices are zero-based; the optical-amplitude autocorrelation
    conventionally labelled S33 is element (2, 2).  The discrete maximum
    is refined with a three-point parabola and the FWHM read off by
    linear interpolation of the half-height crossings.

    Raises
    ------
    DomainError
        If the maximum sits on the grid boundary (no interior peak on
        the positive half-grid); scan a wider omega range.
    """
    pos = result.omega_grid > 0.0
    if np.count_nonzero(pos) < 3:
        raise DomainError("need at least 3 positive-omega grid points")
    om = result.omega_grid[pos]
    mag = np.abs(result.S[pos, i, j])
    k = int(np.argmax(mag))
    if k == 0 or k == len(om) - 1:
        raise DomainError(
            f"|S_{i + 1}{j + 1}| attains its maximum at the boundary omega={om[k]:.4g} "
            "of the positive half-grid; no interior peak here, scan a wider grid"
        )
    # Parabolic refinement through the three points around the maximum.
    y0, y1, y2 = mag[k - 1], mag[k], mag[k + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    h = om[k + 1] - om[k]
    omega_peak = om[k] + shift * h
    height = y1 - 0.25 * (y0 - y2) * shift

    half = height / 2.0
    lo = k
    while lo > 0 and mag[lo] >= half:
        lo -= 1
    hi = k
    while hi < len(om) - 1 and mag[hi] >= half:
        hi += 1
    if mag[lo] >= half or mag[hi] >= half:
        raise DomainError("half-height crossings fall outside the grid; scan a wider grid")
    left = om[lo] + (half - mag[lo]) / (mag[lo + 1] - mag[lo]) * (om[lo + 1] - om[lo])
    right = om[hi - 1] + (half - mag[hi - 1]) / (mag[hi] - mag[hi - 1]) * (om[hi] - om[hi - 1])
    return SpectralPeak(omega_peak=float(omega_peak), height=float(height),
                        fwhm=float(right - left))


def spectrum_to_csv(result: SpectrumResult, path, extra_pairs=()) -> None:
    """Write `omega,S33_re,S33_im,S33_abs` (plus optional extra elements).

    ``extra_pairs`` holds additional zero-based (i, j) element indices;
    their columns are labelled with the one-based convention, e.g. the
    pair (0, 1) produces S12_* columns.  It must not hold (2, 2), whose
    columns always come first; ``spectrum --elements`` filters it out.
    """
    cols = [(2, 2)] + list(extra_pairs)
    header = ["omega"]
    table = [result.omega_grid]
    for i, j in cols:
        tag = f"S{i + 1}{j + 1}"
        header += [f"{tag}_re", f"{tag}_im", f"{tag}_abs"]
        z = result.S[:, i, j]
        table += [z.real, z.imag, np.abs(z)]
    write_csv(path, header, np.column_stack(table).tolist())
