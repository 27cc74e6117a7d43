"""Semiclassical dynamics: vector field, fixed points, stability, cycles.

State ordering throughout is the real 4-vector (beta_r, beta_i, alpha_r,
alpha_i).  The vector field assumes the time-rescaled model with chi = 1;
general chi is handled by ``model.rescale_to_unit_chi``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import DomainError, NumericalError
from .model import SystemParams

#: |Re(lambda)| below which an eigenvalue pair counts as marginal.
MARGINAL_TOL = 1e-8

#: The scipy solver behind ``integrate``, recorded in run manifests.
INTEGRATOR = "DOP853"

#: Accepted integration steps after which ``integrate`` gives up.  The
#: longest run in the package and its tests takes under 5000; this many
#: take about 9 s on a 2-core host and hold about 30 MB of interpolants.
MAX_STEPS = 40_000

#: Output times above which ``integrate`` refuses to run, before it
#: allocates them: a million samples hold 32 MB of states.
MAX_SAMPLES = 1_000_000

#: Swing of beta_r, relative to the segment's largest |state| component,
#: below which ``detect_limit_cycle`` reports no cycle.  Integration noise
#: about a stable fixed point sits near 1e-10 at the default tolerances;
#: the smallest cycle any command measures swings by about 1e-1.
CYCLE_AMPLITUDE_FLOOR = 1e-6

#: Column names of every time-sampled state table.
TRAJECTORY_HEADER = ("t", "beta_r", "beta_i", "alpha_r", "alpha_i")


def vector_field(y, params: SystemParams) -> np.ndarray:
    """Right-hand side of the scaled equations of motion.

    Parameters
    ----------
    y : array_like, shape (..., 4)
        State (beta_r, beta_i, alpha_r, alpha_i), or a batch of states
        along the leading axes.
    params : SystemParams
        Must have chi == 1.

    Returns
    -------
    ndarray, shape (..., 4)
        (dbeta_r, dbeta_i, dalpha_r, dalpha_i)/dt for each state.
    """
    if params.chi != 1.0:
        raise DomainError("vector_field requires chi == 1; rescale_to_unit_chi first")
    br, bi, ar, ai = np.asarray(y).T
    g2 = params.gamma / 2.0
    k2 = params.kappa / 2.0
    return np.array([
        2.0 * (bi * ar - br * ai) - g2 * br,
        2.0 * (br * ar + bi * ai) - g2 * bi - params.epsilon,
        -2.0 * br * bi - k2 * ar,
        br * br - bi * bi - k2 * ai,
    ]).T


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the semiclassical equations.

    ``y`` has shape (n, 4) in the canonical ordering, sampled at ``times``;
    ``dense`` is the solution between samples, a callable t -> state (the
    integrator's ``OdeSolution``), on which ``detect_limit_cycle`` finds
    its section crossings.  Like ``OdeSolution``, it maps a scalar time to
    shape (4,) and an array of m times to shape (4, m).
    """

    times: np.ndarray
    y: np.ndarray
    params: SystemParams
    dense: object

    def __post_init__(self):
        if len(self.times) != len(self.y):
            raise DomainError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        """Write `t,beta_r,beta_i,alpha_r,alpha_i` at full double precision."""
        write_csv(path, TRAJECTORY_HEADER, np.column_stack([self.times, self.y]))


def integrate(
    state0,
    params: SystemParams,
    t_span,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    n_samples: int = 2000,
) -> Trajectory:
    """Integrate the semiclassical equations with the adaptive DOP853 8(5,3) pair.

    Parameters
    ----------
    state0 : array_like, shape (4,)
        Initial state (beta_r, beta_i, alpha_r, alpha_i); convert complex
        amplitudes with ``SemiclassicalState.to_vector``.
    t_span : (float, float)
        Integration interval; must be finite.
    rel_tol, abs_tol : float
        Tolerances, each in (0, 1e-2].
    n_samples : int
        Number (1 to ``MAX_SAMPLES``) of output times, uniformly spaced
        from ``t_span[0]`` to ``t_span[1]`` inclusive.

    Raises
    ------
    NumericalError
        On integrator failure, or when ``MAX_STEPS`` accepted steps do not
        reach ``t_span[1]`` (carries the time reached).
    """
    y0 = np.asarray(state0, dtype=float)
    if y0.shape != (4,):
        raise DomainError(f"state0 must have 4 components, got shape {y0.shape}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise DomainError(f"t_span must be finite with t1 > t0, got {t_span}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < tol <= 1e-2):
            raise DomainError(f"{name} must lie in (0, 1e-2], got {tol}")
    if not 1 <= int(n_samples) <= MAX_SAMPLES:
        raise DomainError(f"n_samples must lie in [1, {MAX_SAMPLES}], got {n_samples}")
    times = np.linspace(t0, t1, int(n_samples))

    # deferred: a start-up cost most commands never use
    from scipy.integrate import DOP853, OdeSolution

    # The steps of scipy's solve_ivp, with the step count bounded.
    solver = DOP853(lambda t, y: vector_field(y, params), t0, y0, t1,
                    rtol=rel_tol, atol=abs_tol)
    ts, interpolants = [t0], []
    for _ in range(MAX_STEPS):
        message = solver.step()
        if solver.status == "failed":
            raise NumericalError(f"integration failed: {message}", time_reached=solver.t)
        ts.append(solver.t)
        interpolants.append(solver.dense_output())
        if solver.status == "finished":
            break
    else:
        raise NumericalError(
            f"integration stopped after {MAX_STEPS} steps at t={solver.t:.6g} "
            f"of {t1:.6g}; shorten t_span or loosen the tolerances",
            time_reached=solver.t,
        )
    dense = OdeSolution(ts, interpolants)
    return Trajectory(times=times, y=dense(times).T.copy(), params=params, dense=dense)


@dataclass(frozen=True)
class FixedPoint:
    """Imaginary-axis critical point (0, beta_i0, 0, alpha_i0)."""

    beta_i0: float
    alpha_i0: float
    residual: float

    def to_vector(self) -> np.ndarray:
        return np.array([0.0, self.beta_i0, 0.0, self.alpha_i0])


def cubic_residual(x: float, params: SystemParams) -> float:
    """Value of (4/kappa) x^3 + (gamma/2) x + epsilon."""
    return (4.0 / params.kappa) * x**3 + 0.5 * params.gamma * x + params.epsilon


def fixed_point(params: SystemParams) -> FixedPoint:
    """Unique critical point of the scaled flow.

    The real parts vanish; beta_i0 is the single real root of the cubic
    (4/kappa) x^3 + (gamma/2) x + epsilon = 0 (strictly monotone for
    kappa > 0, gamma >= 0), found by safeguarded Newton with bisection
    fallback on a bracketing interval.  alpha_i0 = -2 beta_i0^2 / kappa.
    """
    k, g, eps = params.kappa, params.gamma, params.epsilon
    if not (k > 0):
        raise DomainError(f"fixed_point requires kappa > 0, got {k}")
    if eps == 0.0:
        return FixedPoint(beta_i0=0.0, alpha_i0=0.0, residual=0.0)

    f = lambda x: cubic_residual(x, params)
    df = lambda x: (12.0 / k) * x**2 + 0.5 * g

    # Root has the opposite sign to eps; bracket [-max(1,(k|eps|)^(1/3)), 0]
    # (mirrored for eps < 0).  The cubic is increasing, so f(lo) < 0 < f(hi) unless it overflows.
    bound = max(1.0, (k * abs(eps)) ** (1.0 / 3.0))
    lo, hi = (-bound, 0.0) if eps > 0 else (0.0, bound)
    if not f(lo) < 0.0 < f(hi):
        raise NumericalError(
            f"no root bracket for the fixed-point cubic at kappa={k:g}, gamma={g:g}, "
            f"epsilon={eps:g} (f(lo)={f(lo):g}, f(hi)={f(hi):g})"
        )

    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            break
        if fx > 0.0:
            hi = x
        else:
            lo = x
        dfx = df(x)
        step = fx / dfx if dfx > 0.0 else math.inf
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new

    return FixedPoint(beta_i0=x, alpha_i0=-2.0 * x**2 / k, residual=f(x))


def jacobian(fp: FixedPoint, params: SystemParams) -> np.ndarray:
    """Linearization of the flow at a critical point, ordering (br, bi, ar, ai)."""
    k2 = params.kappa / 2.0
    g2 = params.gamma / 2.0
    b, a = fp.beta_i0, fp.alpha_i0
    return np.array([
        [-2.0 * a - g2, 0.0, 2.0 * b, 0.0],
        [0.0, 2.0 * a - g2, 0.0, 2.0 * b],
        [-2.0 * b, 0.0, -k2, 0.0],
        [0.0, -2.0 * b, 0.0, -k2],
    ])


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: np.ndarray
    classification: str
    max_real_part: float


def classify_fixed_point(params: SystemParams, fp: FixedPoint) -> StabilityReport:
    """Eigenvalues and stability class of the critical point ``fp`` of ``params``."""
    ev = np.linalg.eigvals(jacobian(fp, params))
    ev = np.sort_complex(ev)
    mx = float(np.max(ev.real))
    if mx < -MARGINAL_TOL:
        label = "stable-focus/node"
    elif mx <= MARGINAL_TOL:
        label = "hopf-marginal"
    else:
        label = "unstable (limit-cycle regime)"
    return StabilityReport(eigenvalues=ev, classification=label, max_real_part=mx)


def require_representable(name: str, value: float, kappa: float, gamma: float) -> float:
    """Return ``value``, positive in exact arithmetic; NumericalError if it under- or overflowed."""
    if not 0.0 < value < math.inf:
        raise NumericalError(
            f"{name} is {value:g}, out of range at kappa={kappa:g}, gamma={gamma:g}")
    return value


@dataclass(frozen=True)
class HopfPoint:
    epsilon_h: float
    beta_i0h: float
    alpha_i0h: float


def hopf_threshold(kappa: float, gamma: float) -> HopfPoint:
    """Drive strength at which the critical point loses stability.

    epsilon_h = sqrt(kappa (kappa+gamma)) (kappa + 2 gamma) / (4 sqrt(2)),
    with the critical-point coordinates beta_i0h = -sqrt(kappa(kappa+gamma)/8)
    and alpha_i0h = -(kappa+gamma)/4.
    """
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    eps_h = math.sqrt(kappa * (kappa + gamma)) * (kappa + 2.0 * gamma) / (4.0 * math.sqrt(2.0))
    require_representable("epsilon_h", eps_h, kappa, gamma)
    return HopfPoint(
        epsilon_h=eps_h,
        beta_i0h=-math.sqrt(kappa * (kappa + gamma) / 8.0),
        alpha_i0h=-(kappa + gamma) / 4.0,
    )


def hopf_frequency(kappa: float, gamma: float) -> float:
    """Frequency sqrt(kappa (kappa + 2 gamma))/2 of the marginal pair."""
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    return require_representable("omega_h", math.sqrt(kappa * (kappa + 2.0 * gamma)) / 2.0,
                                 kappa, gamma)


def hopf_eigenvalues(kappa: float, gamma: float) -> np.ndarray:
    """Closed-form spectrum at the bifurcation, from the two 2x2 blocks.

    The marginal pair is +/- i sqrt(kappa(kappa+2 gamma))/2; the stable
    pair is -(kappa+gamma)/2 +/- i sqrt(2 kappa(kappa+gamma) - gamma^2)/2,
    a real pair for gamma > (1 + sqrt 3) kappa.
    """
    om = hopf_frequency(kappa, gamma)
    re2 = -(kappa + gamma) / 2.0
    im2 = cmath.sqrt(2.0 * kappa * (kappa + gamma) - gamma**2) / 2.0
    return np.array([1j * om, -1j * om, re2 + 1j * im2, re2 - 1j * im2])


@dataclass(frozen=True)
class LimitCycleMeasurement:
    period: float
    amplitude_beta_r: float
    amplitude_alpha_r: float
    mean_beta_i: float
    mean_alpha_i: float
    converged: bool
    n_crossings: int
    crossing_times: np.ndarray


def detect_limit_cycle(traj: Trajectory, transient_fraction: float = 0.5) -> LimitCycleMeasurement:
    """Measure a limit cycle from a post-transient trajectory segment.

    The Poincare section is beta_r = 0 crossed with alpha_r increasing
    (the critical point has beta_r0 = 0, so the section passes through
    the cycle's interior).  One vectorised pass over the samples finds
    the crossings, each either a sample on the section or a bracket of
    two samples of opposite beta_r, which Brent's method refines on
    ``traj.dense``.  The measurement counts as converged when
    successive crossing states agree to 1e-4 relative and the swing
    ``amplitude_beta_r`` exceeds ``CYCLE_AMPLITUDE_FLOOR`` times the
    largest |state| component of the segment, so that integration noise
    about a stable fixed point, however regular, is never a cycle.

    Returns ``converged=False`` with nan period and zero amplitudes when
    fewer than two crossings are found (fixed-point regime).
    """
    if not (0.0 <= transient_fraction < 1.0):
        raise DomainError(f"transient_fraction must lie in [0, 1), got {transient_fraction}")
    t0, t1 = traj.times[0], traj.times[-1]
    t_start = t0 + transient_fraction * (t1 - t0)
    candidate = 2.0 * math.pi / hopf_frequency(traj.params.kappa, traj.params.gamma)
    if (t1 - t_start) < 10.0 * candidate:
        raise DomainError(
            f"post-transient span {t1 - t_start:.3g} covers fewer than 10 candidate "
            f"periods ({candidate:.3g} each); integrate longer"
        )

    sel = traj.times >= t_start
    ts = traj.times[sel]
    ys = traj.y[sel]
    br = ys[:, 0]
    ar = ys[:, 2]

    # At beta_r = 0 the flow gives dalpha_r/dt = -(kappa/2) alpha_r, so
    # "alpha_r increasing" is exactly alpha_r < 0 on the section.  A sample
    # on the section is a crossing as it stands; a sign change of beta_r
    # between two samples brackets one, located on the dense output to
    # 1e-14 * max(1, |t|).
    on = (br[:-1] == 0.0) & (ar[:-1] < 0.0)
    across = (br[:-1] * br[1:] < 0.0) & (0.5 * (ar[:-1] + ar[1:]) < 0.0)
    # deferred, as in integrate; scipy.integrate has already loaded it
    from scipy.optimize import brentq

    def beta_r(t):
        return traj.dense(t)[0]

    crossings = [ts[i] if on[i] else
                 brentq(beta_r, ts[i], ts[i + 1], xtol=1e-14 * max(1.0, abs(ts[i + 1])))
                 for i in np.flatnonzero(on | across)]

    tc = np.asarray(crossings)
    period, amplitude, amplitude_ar, converged = math.nan, 0.0, 0.0, False
    if len(tc) >= 2:
        period = float(np.mean(np.diff(tc)))
        states = traj.dense(tc).T
        # Component scales from the whole segment: the section coordinate is
        # ~0 at every crossing and must not wreck the relative comparison.
        scale = np.max(np.abs(ys), axis=0)
        amplitude = 0.5 * float(br.max() - br.min())
        amplitude_ar = 0.5 * float(ar.max() - ar.min())
        swings = amplitude > CYCLE_AMPLITUDE_FLOOR * scale.max()
        scale[scale == 0.0] = 1.0
        rel_jump = np.max(np.abs(np.diff(states, axis=0)) / scale, axis=1)
        converged = bool(swings and np.all(rel_jump[-min(5, len(rel_jump)):] <= 1e-4))

    return LimitCycleMeasurement(
        period=period,
        amplitude_beta_r=amplitude,
        amplitude_alpha_r=amplitude_ar,
        mean_beta_i=float(np.mean(ys[:, 1])),
        mean_alpha_i=float(np.mean(ys[:, 3])),
        converged=converged,
        n_crossings=len(tc),
        crossing_times=tc,
    )
