"""Limit cycles by Fourier collocation, and their Floquet multipliers.

A periodic orbit x(t) of the semiclassical flow is held as its states X_j
at N (odd) equispaced nodes of one period.  In the phase tau = omega t the
orbit solves omega dx/dtau = f(x); Fourier differentiation D turns that
into the 4N equations omega (D X)_j = f(X_j) (Trefethen, Spectral Methods
in MATLAB, 2000, ch. 3).  The phase condition beta_r = 0 at the first node
pins the orbit to the Poincare section of ``detect_limit_cycle`` and closes
the system for (X, omega), which Newton solves with its exact bordered
Jacobian.  Hill's method gives the Floquet multipliers (Deconinck & Kutz,
J. Comput. Phys. 219, 296 (2006)): the eigenvalues lambda of
blockdiag J(X_j) - omega D with |Im lambda| <= omega/2 give
mu = exp(lambda T).

``limit_cycle`` seeds Newton from the flow: it integrates ``SETTLE_PERIODS``
predicted periods from the centre-manifold orbit and takes the last full
period between two section crossings, so the cycle it returns is the one
the flow settles on from that start.  Seeded from the prediction alone,
Newton falls to the fixed point or to a negative period past ~0.5 epsilon_h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import center_manifold as cm
from .closed_forms import hopf_threshold
from .errors import NumericalError
from .model import SystemParams
from .semiclassics import (
    CYCLE_AMPLITUDE_FLOOR,
    detect_limit_cycle,
    integrate,
    jacobian,
    vector_field,
)

#: Predicted periods integrated from the centre-manifold orbit before the
#: last full period seeds Newton.
SETTLE_PERIODS = 10

#: Nodes of the first collocation; each refinement takes N to 2N + 1.
FIRST_MODES = 15

#: Most nodes a collocation may take before ``limit_cycle`` gives up.  The
#: Newton matrix is (4N + 1)^2 floats: 8 MB at this cap.
MAX_MODES = 255

#: Largest |Fourier coefficient| of beta_r over the upper half of the
#: harmonics, relative to the largest, at which N is enough.
TAIL_TOLERANCE = 1e-12

#: Newton stops after a step below this fraction of max |X| and of omega.
NEWTON_TOLERANCE = 1e-11

#: Newton steps at one N after which ``limit_cycle`` gives up.
MAX_NEWTON_STEPS = 20

#: Phases ``_interpolate`` evaluates at once: 4096 x 128 complex
#: exponentials (8 MB) at the node cap, however many phases are asked for.
_BLOCK = 4096


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit as its states at N equispaced times of one period.

    ``nodes[j]`` is the state at t = j T / N, with T = 2 pi / ``omega``;
    the first lies on the section beta_r = 0 with alpha_r < 0.
    ``newton_iterations`` counts the Newton steps over every N tried.
    """

    nodes: np.ndarray
    omega: float
    params: SystemParams
    newton_iterations: int

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def n_modes(self) -> int:
        return len(self.nodes)

    def __call__(self, t) -> np.ndarray:
        """States (m, 4) at the times ``t`` by trigonometric interpolation."""
        return _interpolate(self.nodes, self.omega * np.atleast_1d(np.asarray(t, dtype=float)))


def _interpolate(nodes, tau) -> np.ndarray:
    """The trigonometric interpolant through ``nodes`` at the phases ``tau``, shape (m, 4)."""
    coefficients = np.fft.rfft(nodes, axis=0) * (2.0 / len(nodes))  # N odd: no Nyquist term
    coefficients[0] /= 2.0
    harmonics = np.arange(len(coefficients))
    tau = np.mod(tau, 2.0 * math.pi)  # keeps k * tau small, so its rounding too
    states = np.empty((len(tau), 4))
    for i in range(0, len(tau), _BLOCK):
        states[i:i + _BLOCK] = (np.exp(1j * np.outer(tau[i:i + _BLOCK], harmonics))
                                @ coefficients).real
    return states


def _differentiation_matrix(n: int) -> np.ndarray:
    """d/dtau on n (odd) equispaced nodes of [0, 2 pi): (-1)^(i-j) / (2 sin(pi (i-j) / n))."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    off = lag != 0
    d = np.zeros((n, n))
    d[off] = 0.5 * np.where(lag[off] % 2, -1.0, 1.0) / np.sin(math.pi * lag[off] / n)
    return d


def _linearisation(nodes, omega: float, params: SystemParams, d) -> np.ndarray:
    """omega D - blockdiag J(X_j), the 4N x 4N derivative of omega D X - f(X) in X."""
    n = len(nodes)
    m = omega * np.kron(d, np.eye(4))
    j = np.arange(n)
    m.reshape(n, 4, n, 4)[j, :, j, :] -= jacobian(nodes, params)
    return m


def _newton(nodes, omega: float, params: SystemParams):
    """Solve omega D X = f(X) with beta_r = 0 at the first node.

    Returns (X, omega, steps taken), X being None when Newton diverges, meets a
    singular matrix or takes ``MAX_NEWTON_STEPS`` steps without converging.
    """
    n = len(nodes)
    d = _differentiation_matrix(n)
    bordered = np.zeros((4 * n + 1, 4 * n + 1))
    bordered[-1, 0] = 1.0  # the phase condition's row: d(beta_r at node 0)
    for step in range(1, MAX_NEWTON_STEPS + 1):
        dx = d @ nodes
        residual = np.append((omega * dx - vector_field(nodes, params)).ravel(), nodes[0, 0])
        bordered[:-1, :-1] = _linearisation(nodes, omega, params, d)
        bordered[:-1, -1] = dx.ravel()
        try:
            delta = np.linalg.solve(bordered, -residual)
        except np.linalg.LinAlgError:
            return None, omega, step
        nodes = nodes + delta[:-1].reshape(n, 4)
        omega += delta[-1]
        if not (np.all(np.isfinite(nodes)) and omega > 0.0):
            break
        if (np.max(np.abs(delta[:-1])) <= NEWTON_TOLERANCE * np.max(np.abs(nodes))
                and abs(delta[-1]) <= NEWTON_TOLERANCE * omega):
            return nodes, omega, step
    return None, omega, step


def _tail(beta_r) -> float:
    """Largest |Fourier coefficient| over the upper half of the harmonics, over the largest."""
    k = (len(beta_r) - 1) // 2
    c = np.abs(np.fft.rfft(beta_r))
    return float(np.max(c[k // 2 + 1:]) / np.max(c))


def limit_cycle(pred: cm.LimitCyclePrediction, params: SystemParams) -> PeriodicOrbit:
    """The limit cycle of the flow at ``params`` that it settles on from ``pred.orbit(0)``.

    ``pred`` is the centre-manifold prediction at the drive of ``params``.
    Integrates ``SETTLE_PERIODS`` predicted periods from its orbit at
    ``integrate``'s default tolerances, seeds the collocation with the last
    full period between section crossings and solves it at ``FIRST_MODES``
    nodes, then at 2N + 1 nodes, until the beta_r spectrum's tail is below
    ``TAIL_TOLERANCE``; where Newton fails at some N, the next N is seeded
    afresh from the settled period.  Raises ``NumericalError`` when the
    predicted or the collocated cycle's beta_r swing falls below
    ``CYCLE_AMPLITUDE_FLOOR`` times its largest |state| component (the
    predicted one is checked before settling), when the settled span
    crosses the section fewer than twice, or when N would pass
    ``MAX_MODES``, Newton not having converged or the tail still being
    above ``TAIL_TOLERANCE``.
    """
    delta = params.epsilon - hopf_threshold(params.kappa, params.gamma).epsilon_h
    where = (f"kappa={params.kappa:g}, gamma={params.gamma:g}, "
             f"epsilon={params.epsilon:g} = epsilon_h + {delta:.3g}")

    def below_floor(which, swing):
        return NumericalError(f"the {which} beta_r swing {swing:.3g} is below "
                              f"{CYCLE_AMPLITUDE_FLOOR:g} of its largest component, so it is "
                              f"the fixed point ({where})")

    # a cycle the floor would refuse once collocated is refused before settling,
    # where Newton would stall on the near-singular radial direction at every N
    start = pred.orbit(0.0)[0]
    if not pred.amplitude_beta_r > CYCLE_AMPLITUDE_FLOOR * np.max(np.abs(start)):
        raise below_floor("predicted", pred.amplitude_beta_r)
    # rounded as detect_limit_cycle rounds its floor of 10 candidate periods
    settle = SETTLE_PERIODS * (2.0 * math.pi / pred.omega_h)
    traj = integrate(start, params, (0.0, settle), n_samples=60 * SETTLE_PERIODS)
    crossings = detect_limit_cycle(traj, transient_fraction=0.0).crossing_times
    if len(crossings) < 2:
        raise NumericalError(f"the flow crossed the section beta_r = 0 {len(crossings)} times "
                             f"in {SETTLE_PERIODS} predicted periods, so it seeds no cycle "
                             f"({where})")
    t_a, t_b = crossings[-2:]

    def seed(n):  # the last full period on n nodes, and its frequency
        return traj.dense(t_a + (t_b - t_a) * np.arange(n) / n).T, 2.0 * math.pi / (t_b - t_a)

    n, steps = FIRST_MODES, 0
    nodes, omega = seed(n)
    while True:
        solved, omega, taken = _newton(nodes, omega, params)
        steps += taken
        if solved is not None:
            swing = 0.5 * float(np.ptp(solved[:, 0]))
            if not swing > CYCLE_AMPLITUDE_FLOOR * np.max(np.abs(solved)):
                raise below_floor("collocated cycle's", swing)
            tail = _tail(solved[:, 0])
            if tail <= TAIL_TOLERANCE:
                return PeriodicOrbit(nodes=solved, omega=omega, params=params,
                                     newton_iterations=steps)
        if 2 * n + 1 > MAX_MODES:
            if solved is None:
                raise NumericalError(f"collocation Newton did not converge at N={n}, the "
                                     f"cap of {MAX_MODES} nodes ({where})")
            raise NumericalError(f"the beta_r spectrum's tail is {tail:.3g} of its peak at "
                                 f"N={n}, above {TAIL_TOLERANCE:g}, and N may not pass "
                                 f"{MAX_MODES} ({where})")
        n = 2 * n + 1
        if solved is None:  # too few nodes to hold the cycle: seed afresh
            nodes, omega = seed(n)
        else:
            nodes = _interpolate(solved, 2.0 * math.pi * np.arange(n) / n)


def floquet_multipliers(orbit: PeriodicOrbit) -> np.ndarray:
    """The four Floquet multipliers by Hill's method, the trivial one (nearest 1) first."""
    d = _differentiation_matrix(orbit.n_modes)
    exponents = np.linalg.eigvals(-_linearisation(orbit.nodes, orbit.omega, orbit.params, d))
    exponents = exponents[np.argsort(np.abs(exponents.imag))[:4]]  # |Im| <= omega / 2
    mu = np.exp(exponents * orbit.period)
    return mu[np.argsort(np.abs(mu - 1.0))]


def closure(orbit: PeriodicOrbit) -> float:
    """Relative return error of one DOP853 period from the first node, at
    ``integrate``'s default tolerances: a second route."""
    start = orbit.nodes[0]
    end = integrate(start, orbit.params, (0.0, orbit.period), n_samples=2).y[-1]
    return float(np.max(np.abs(end - start)) / np.max(np.abs(orbit.nodes)))
