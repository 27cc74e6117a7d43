"""Model parameters, physical-realization maps and the canonical state.

The parametric coupling chi is the unit of rate: the dynamical core works
in time units of 1/chi, so only kappa/chi, gamma/chi and epsilon/chi
enter.  A physical realization (trapped atom in a standing wave, membrane
in the middle) enters as SystemParams(kappa/chi, gamma/chi, epsilon/chi)
with chi = effective_coupling(coupling_strength(r),
steady_cavity_amplitude(r.epsilon_c, kappa, r.delta)), and the core's
times are then in units of 1/chi.  Everything downstream is unit-free.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

# Reduced Planck constant, J*s; only the realization maps need it.
HBAR = 1.0546e-34


def _require_finite(obj) -> None:
    """Raise DomainError unless every field of the dataclass ``obj`` is finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not cmath.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """The three dynamical rates of the scaled model, in units of chi.

    The mechanical bath is at zero temperature.

    Parameters
    ----------
    kappa : float
        Optical amplitude decay rate (1/time).
    gamma : float
        Mechanical amplitude decay rate (1/time).
    epsilon : float
        Mechanical drive strength (1/time).
    """

    kappa: float
    gamma: float
    epsilon: float

    def __post_init__(self):
        _require_finite(self)
        # kappa = 0 is admitted so the undamped conservation oracle can run;
        # operations that divide by kappa enforce positivity themselves.
        if self.kappa < 0:
            raise DomainError(f"kappa must be >= 0, got {self.kappa}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class AtomRealization:
    """Harmonically trapped atom coupled to a cavity standing wave.

    Fields are in SI-compatible units: ``g`` the single-photon Rabi
    frequency, ``Delta`` the atom-cavity detuning, ``nu`` the trap
    frequency, ``mass`` the atomic mass, ``k_wave`` the cavity wavenumber,
    ``epsilon_c`` the complex cavity drive amplitude and ``delta`` the
    cavity drive detuning.
    """

    g: float
    Delta: float
    nu: float
    mass: float
    k_wave: float
    epsilon_c: complex
    delta: float

    def __post_init__(self):
        _require_finite(self)
        if self.Delta == 0:
            raise DomainError("atom-cavity detuning Delta must be nonzero")
        if not (self.nu > 0):
            raise DomainError(f"trap frequency nu must be > 0, got {self.nu}")
        if not (self.mass > 0):
            raise DomainError(f"mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class MembraneRealization:
    """Dielectric membrane at an extremum of the cavity frequency.

    ``curvature`` is the second derivative of the cavity frequency with
    respect to membrane displacement at the extremum (1/(time*length^2)).
    """

    mass: float
    nu: float
    curvature: float
    epsilon_c: complex
    delta: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.nu > 0):
            raise DomainError(f"mechanical frequency nu must be > 0, got {self.nu}")
        if not (self.mass > 0):
            raise DomainError(f"mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class SemiclassicalState:
    """Complex cavity amplitude alpha and mechanical amplitude beta.

    Bijective with the real 4-vector (beta_r, beta_i, alpha_r, alpha_i),
    the canonical ordering used by the dynamics and linear algebra.
    """

    alpha: complex
    beta: complex

    def to_vector(self) -> np.ndarray:
        b, a = complex(self.beta), complex(self.alpha)
        return np.array([b.real, b.imag, a.real, a.imag])


@dataclass(frozen=True)
class SidebandCheck:
    resolved: bool
    margin: float


def lamb_dicke(k_wave: float, mass: float, nu: float) -> float:
    """Lamb-Dicke parameter k*sqrt(hbar/(2*m*nu)).

    Raises
    ------
    DomainError
        If ``mass`` or ``nu`` is not positive.
    """
    if not (mass > 0):
        raise DomainError(f"mass must be > 0, got {mass}")
    if not (nu > 0):
        raise DomainError(f"nu must be > 0, got {nu}")
    return k_wave * math.sqrt(HBAR / (2.0 * mass * nu))


def coupling_strength(realization) -> float:
    """Quadratic optomechanical coupling G for either realization.

    Atom: G = eta^2 g^2 / Delta with eta the Lamb-Dicke parameter.
    Membrane: G = hbar/(4 nu m) times the cavity-frequency curvature.
    """
    if isinstance(realization, AtomRealization):
        r = realization
        eta = lamb_dicke(r.k_wave, r.mass, r.nu)
        return eta**2 * r.g**2 / r.Delta
    if isinstance(realization, MembraneRealization):
        r = realization
        return HBAR / (4.0 * r.nu * r.mass) * r.curvature
    raise DomainError(f"unsupported realization type: {type(realization).__name__}")


def steady_cavity_amplitude(epsilon_c: complex, kappa: float, delta: float) -> complex:
    """Steady coherent amplitude -i*eps_c / (kappa/2 - i*delta) of the driven cavity."""
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    return -1j * epsilon_c / (kappa / 2.0 - 1j * delta)


def effective_coupling(G: float, alpha_bar: complex) -> float:
    """Effective parametric coupling chi = G*|alpha_bar|.

    The drive phase is chosen to make the steady cavity amplitude real,
    so only the magnitude of ``alpha_bar`` enters.
    """
    return G * abs(alpha_bar)


def resolved_sideband_check(nu: float, kappa: float) -> SidebandCheck:
    """Check the resolved-sideband condition 2*nu > kappa; margin = 2*nu/kappa."""
    if not (nu > 0):
        raise DomainError(f"nu must be > 0, got {nu}")
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    margin = 2.0 * nu / kappa
    return SidebandCheck(resolved=margin > 1.0, margin=margin)
