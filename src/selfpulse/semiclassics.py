"""Semiclassical dynamics: vector field, fixed points, stability, cycles.

State ordering throughout is the real 4-vector (beta_r, beta_i, alpha_r,
alpha_i).  Times are in units of the inverse parametric coupling (see
``model``).
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import DomainError, NumericalError
from .model import SystemParams

#: |Re(lambda)| below which an eigenvalue pair counts as marginal.
MARGINAL_TOL = 1e-8

#: The Runge-Kutta pair ``integrate`` steps, recorded in run manifests.
INTEGRATOR = "DOP853"

#: DOP853's step-size control, as in scipy: a new step is the last one
#: times SAFETY * error ** ERROR_EXPONENT, clipped to [MIN_FACTOR,
#: MAX_FACTOR].  The error is > 0 there, so the power stays below 1e41.
SAFETY = 0.9
ERROR_EXPONENT = -1.0 / 8.0
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

#: The smallest relative tolerance, as in scipy: 100 machine epsilons.
_MIN_REL_TOL = 100.0 * sys.float_info.epsilon

#: Accepted integration steps after which ``integrate`` gives up.  The
#: longest run in the package and its tests takes under 5000; this many
#: take about 3.6 s on a 2-core host and hold 10 MB of interpolant
#: coefficients (32 floats a step).
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


def _rates(br, bi, ar, ai, g2, k2, epsilon):
    """The four time derivatives, elementwise on floats or arrays alike."""
    return (
        2.0 * (bi * ar - br * ai) - g2 * br,
        2.0 * (br * ar + bi * ai) - g2 * bi - epsilon,
        -2.0 * br * bi - k2 * ar,
        br * br - bi * bi - k2 * ai,
    )


def vector_field(y, params: SystemParams):
    """Right-hand side of the scaled equations of motion.

    Parameters
    ----------
    y : tuple of 4 floats, or array_like of shape (..., 4)
        State (beta_r, beta_i, alpha_r, alpha_i), or a batch of states
        along the leading axes.
    params : SystemParams
        The scaled rates kappa, gamma and epsilon.

    Returns
    -------
    tuple of 4 floats, or ndarray of shape (..., 4)
        (dbeta_r, dbeta_i, dalpha_r, dalpha_i)/dt, as a tuple for a tuple
        (the form ``integrate`` steps in) and as an array otherwise.
    """
    g2 = params.gamma / 2.0
    k2 = params.kappa / 2.0
    if isinstance(y, tuple):
        return _rates(*y, g2, k2, params.epsilon)
    return np.array(_rates(*np.asarray(y).T, g2, k2, params.epsilon)).T


def _horner(row, x):
    """The interpolant at x: row(0) = y_old plus the Horner sum of row(1) to row(7) = F0 to F6.

    Works on floats and, in place, on arrays alike.
    """
    u = 1.0 - x
    y = row(7) * x
    for r in range(6, 0, -1):
        y += row(r)
        y *= x if r % 2 else u
    return y + row(0)


@dataclass(frozen=True)
class DenseOutput:
    """The continuous solution of ``integrate``: DOP853's 7th-degree interpolant per step.

    ``ts`` holds the n + 1 step boundaries and ``coefficients`` the rows
    (y_old, F0, ..., F6) of each step, shape (n, 8, 4), in the form of
    Hairer, Norsett & Wanner, Solving ODEs I, II.6, which scipy's
    ``DOP853`` also uses.  Like scipy's ``OdeSolution``, a time on a step
    boundary takes the earlier step, a scalar time gives shape (4,) and
    an array of m times gives shape (4, m).
    """

    ts: np.ndarray
    coefficients: np.ndarray

    def __call__(self, t) -> np.ndarray:
        last = len(self.coefficients) - 1
        if np.ndim(t) == 0:  # root finders ask one time at a time; floats are faster there
            i = min(max(int(np.searchsorted(self.ts, t)) - 1, 0), last)
            t_old = float(self.ts[i])
            x = (float(t) - t_old) / (float(self.ts[i + 1]) - t_old)
            return np.array([_horner(column.__getitem__, x)
                             for column in self.coefficients[i].T.tolist()])
        step = np.minimum(np.maximum(np.searchsorted(self.ts, t) - 1, 0), last)
        t_old = self.ts[step]
        x = ((np.asarray(t, dtype=float) - t_old) / (self.ts[step + 1] - t_old))[:, None]
        return _horner(lambda r: self.coefficients[step, r], x).T


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the semiclassical equations.

    ``y`` has shape (n, 4) in the canonical ordering, sampled at ``times``;
    ``dense`` is the solution between samples, a callable t -> state (a
    ``DenseOutput`` for ``integrate``'s trajectories), on which
    ``detect_limit_cycle`` finds its section crossings.  It maps a scalar
    time to shape (4,) and an array of m times to shape (4, m).
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


def _combine(row, ks):
    """The sum of c * ks[j] over (j, c) in ``row``, added left to right, as 4 floats."""
    s0 = s1 = s2 = s3 = 0.0
    for j, c in row:
        k0, k1, k2, k3 = ks[j]
        s0 += c * k0
        s1 += c * k1
        s2 += c * k2
        s3 += c * k3
    return s0, s1, s2, s3


def _stage(y, h, row, ks):
    """y + h * (the combination ``row`` of the stages ``ks``)."""
    s0, s1, s2, s3 = _combine(row, ks)
    return y[0] + s0 * h, y[1] + s1 * h, y[2] + s2 * h, y[3] + s3 * h


def _sum_squares(v, scale):
    """The sum of (v / scale)**2 over the four components, added left to right."""
    total = 0.0
    for a, s in zip(v, scale):
        q = a / s
        total += q * q
    return total


def _rms(v, scale):
    """Root mean square of v / scale over the four components."""
    return math.sqrt(_sum_squares(v, scale)) / 2.0


def _initial_step(rhs, params, y0, f0, interval, rel_tol, abs_tol):
    """scipy's ``select_initial_step`` for DOP853 (Hairer, Norsett & Wanner, II.4)."""
    scale = [abs_tol + abs(a) * rel_tol for a in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0.0:  # f0 overflowed; the step control starts from its smallest step
        return 0.0
    f1 = rhs(tuple(a + h0 * b for a, b in zip(y0, f0)), params)
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _error_norm(e5, e3, scale, h):
    """DOP853's error norm of the step h from its 5th- and 3rd-order estimates."""
    # the square of each 2-norm, rounded as numpy's norm(...)**2 rounds it
    n5 = math.sqrt(_sum_squares(e5, scale))
    n5 *= n5
    n3 = math.sqrt(_sum_squares(e3, scale))
    n3 *= n3
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    denom = n5 + 0.01 * n3
    return h * n5 / math.sqrt(4.0 * denom) if denom > 0.0 else math.nan


def integrate(
    state0,
    params: SystemParams,
    t_span,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    n_samples: int = 2000,
) -> Trajectory:
    """Integrate the semiclassical equations with the adaptive DOP853 8(5,3) pair.

    The steps are those of scipy's ``DOP853``, taken on floats: its
    tableau, initial step, error norm and step-size control (safety 0.9,
    factors 0.2 to 10, exponent -1/8, no growth right after a rejection),
    and its 7th-degree interpolant as ``Trajectory.dense``.  The right-hand
    side is this module's ``vector_field``, called on tuples.

    Parameters
    ----------
    state0 : array_like, shape (4,)
        Initial state (beta_r, beta_i, alpha_r, alpha_i); convert complex
        amplitudes with ``SemiclassicalState.to_vector``.
    t_span : (float, float)
        Integration interval; must be finite.
    rel_tol, abs_tol : float
        Tolerances, each in (0, 1e-2]; ``rel_tol`` must also be at least
        100 machine epsilons, the smallest that scipy's ``DOP853`` runs at.
    n_samples : int
        Number (1 to ``MAX_SAMPLES``) of output times, uniformly spaced
        from ``t_span[0]`` to ``t_span[1]`` inclusive.

    Raises
    ------
    NumericalError
        When the step size falls below the spacing of the floats near t,
        or when ``MAX_STEPS`` accepted steps do not reach ``t_span[1]``
        (carries the time reached).
    """
    y0 = np.asarray(state0, dtype=float)
    if y0.shape != (4,) or not np.all(np.isfinite(y0)):
        raise DomainError(f"state0 must be 4 finite components, got {state0!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise DomainError(f"t_span must be finite with t1 > t0, got {t_span}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < tol <= 1e-2):
            raise DomainError(f"{name} must lie in (0, 1e-2], got {tol}")
    if rel_tol < _MIN_REL_TOL:
        raise DomainError(f"rel_tol must be at least 100 machine epsilons "
                          f"({_MIN_REL_TOL:g}), got {rel_tol:g}")
    if not 1 <= int(n_samples) <= MAX_SAMPLES:
        raise DomainError(f"n_samples must lie in [1, {MAX_SAMPLES}], got {n_samples}")
    times = np.linspace(t0, t1, int(n_samples))

    from . import _dop853 as tab  # deferred: a start-up cost most commands never use
    f = vector_field  # the module attribute, so that a replacement of it is what runs
    t, y = t0, tuple(y0.tolist())
    fy = f(y, params)
    h_abs = _initial_step(f, params, y, fy, t1 - t0, rel_tol, abs_tol)
    ts, record = [t0], array("d")
    for _ in range(MAX_STEPS):
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise NumericalError(
                    f"integration failed at t={t:.6g}: the step size fell below the "
                    f"spacing of floating-point numbers", time_reached=t)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            ks = [fy]
            for row in tab.STAGES:
                ks.append(f(_stage(y, h, row, ks), params))
            y_new = _stage(y, h, tab.B, ks)
            f_new = f(y_new, params)
            ks.append(f_new)
            scale = [abs_tol + max(abs(a), abs(b)) * rel_tol for a, b in zip(y, y_new)]
            error = _error_norm(_combine(tab.E5, ks), _combine(tab.E3, ks), scale, h)
            if error < 1.0:
                factor = (MAX_FACTOR if error == 0.0
                          else min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        # the accepted step's interpolant: three more stages, then rows y_old, F0 to F6
        for row in tab.EXTRA:
            ks.append(f(_stage(y, h, row, ks), params))
        dy = [b - a for a, b in zip(y, y_new)]
        record.extend(y)
        record.extend(dy)
        record.extend([h * a - d for a, d in zip(fy, dy)])
        record.extend([2.0 * d - h * (b + a) for d, a, b in zip(dy, fy, f_new)])
        for row in tab.D:
            record.extend([h * s for s in _combine(row, ks)])
        t, y, fy = t_new, y_new, f_new
        ts.append(t)
        if t >= t1:
            break
    else:
        raise NumericalError(
            f"integration stopped after {MAX_STEPS} steps at t={t:.6g} "
            f"of {t1:.6g}; shorten t_span or loosen the tolerances",
            time_reached=t,
        )
    dense = DenseOutput(np.array(ts), np.frombuffer(record).reshape(-1, 8, 4))
    return Trajectory(times=times, y=dense(times).T, params=params, dense=dense)


@dataclass(frozen=True)
class FixedPoint:
    """Imaginary-axis critical point (0, beta_i0, 0, alpha_i0)."""

    beta_i0: float
    alpha_i0: float
    residual: float

    def to_vector(self) -> np.ndarray:
        return np.array([0.0, self.beta_i0, 0.0, self.alpha_i0])


def cubic_residual(x: float, params: SystemParams) -> float:
    """Value of (4/kappa) x^3 + (gamma/2) x + epsilon; NumericalError if x^3 overflows."""
    try:
        cube = x**3
    except OverflowError:
        raise NumericalError(
            f"the fixed-point cubic overflows at kappa={params.kappa:g}, "
            f"gamma={params.gamma:g}, epsilon={params.epsilon:g}") from None
    return (4.0 / params.kappa) * cube + 0.5 * params.gamma * x + params.epsilon


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

    # Root has the opposite sign to eps, and |root| lies in [s/2, s] for s the
    # smaller |root| with one of the two x terms left out; bracket [-2s, 0]
    # (mirrored for eps < 0), so Newton starts within a factor 2 at any scale.
    # The cubic is increasing, so f(lo) < 0 < f(hi) unless it overflows.
    s = (k * abs(eps) / 4.0) ** (1.0 / 3.0)
    if g > 0.0:
        s = min(s, 2.0 * abs(eps) / g)
    w = 2.0 * s
    lo, hi = (-w, 0.0) if eps > 0 else (0.0, w)
    # A subnormal drive can round s below the root, or to 0; widen the
    # bracket by doubling until f changes sign (x^3 overflow ends it).
    if not f(lo) < 0.0 < f(hi):
        w = max(w, math.ulp(0.0))
        while math.isfinite(w) and not f(lo) < 0.0 < f(hi):
            w *= 2.0
            lo, hi = (-w, 0.0) if eps > 0 else (0.0, w)
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


def rate_ratio(kappa: float, gamma: float) -> float:
    """The model's one shape parameter r = gamma/kappa, for kappa > 0 and gamma >= 0.

    With time in units of 1/kappa, beta = kappa B, alpha = kappa A and
    epsilon = kappa^2 e, the equations of motion depend on r and e alone.
    So every closed form at the Hopf point is kappa^p f(r), written so that
    at moderate r only the factor kappa^p can leave the range of floats.
    """
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    if not (gamma >= 0):
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return gamma / kappa


def require_representable(name: str, value: float, kappa: float, gamma: float) -> float:
    """Return ``value``, positive in exact arithmetic; NumericalError unless a normal float."""
    if not sys.float_info.min <= value < math.inf:
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

    With r = gamma/kappa, epsilon_h = kappa^2 sqrt(1+r) (1+2r) / (4 sqrt 2),
    and the critical point there has beta_i0h = -kappa sqrt((1+r)/8) and
    alpha_i0h = -kappa (1+r)/4.
    """
    r = rate_ratio(kappa, gamma)
    shape = math.sqrt(1.0 + r) * (1.0 + 2.0 * r) / (4.0 * math.sqrt(2.0))
    eps_h = kappa * (kappa * shape)  # no kappa^2 to under- or overflow on its own
    return HopfPoint(
        epsilon_h=require_representable("epsilon_h", eps_h, kappa, gamma),
        beta_i0h=-kappa * math.sqrt((1.0 + r) / 8.0),
        alpha_i0h=-kappa * (1.0 + r) / 4.0,
    )


def hopf_frequency(kappa: float, gamma: float) -> float:
    """Frequency omega_h = kappa sqrt(1+2r)/2 of the marginal pair, r = gamma/kappa."""
    r = rate_ratio(kappa, gamma)
    return require_representable("omega_h", kappa * math.sqrt(1.0 + 2.0 * r) / 2.0,
                                 kappa, gamma)


def hopf_eigenvalues(kappa: float, gamma: float) -> np.ndarray:
    """Closed-form spectrum at the bifurcation, from the two 2x2 blocks.

    With r = gamma/kappa, the marginal pair is +/- i omega_h and the
    stable pair is kappa (-(1+r) +/- i sqrt(2(1+r) - r^2))/2, a real pair
    for r > 1 + sqrt 3.  The small root of a real pair is taken as the
    pair's product kappa^2 (4r + 3)/4 over the large root, since
    -(1+r) + sqrt(r^2 - 2r - 2) cancels as r grows.
    """
    om = hopf_frequency(kappa, gamma)
    r = rate_ratio(kappa, gamma)
    re2 = -kappa * (1.0 + r) / 2.0
    disc = 2.0 * (1.0 + r) - r * r
    if disc < 0.0:
        s = math.sqrt(-disc)
        small = -kappa * (4.0 * r + 3.0) / (2.0 * (1.0 + r + s))
        return np.array([1j * om, -1j * om, re2 - kappa * s / 2.0, small + 0j])
    im2 = kappa * cmath.sqrt(disc) / 2.0
    return np.array([1j * om, -1j * om, re2 + 1j * im2, re2 - 1j * im2])


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign, to xtol + 4 eps |x|.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) as scipy's ``brentq`` takes it, step for step: the port of its
    brentq.c, with its relative tolerance of 4 machine epsilons and its 100
    iterations, so that both return the same float.  ``f`` maps a float to
    a float.  Raises ValueError when f(xa) and f(xb) have the same sign.
    """
    rtol = 4.0 * sys.float_info.epsilon
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({xa:g}) and f({xb:g}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre  # the bracket is [xcur, xblk]
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or nan, which bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericalError(f"Brent's method did not converge in 100 iterations on "
                         f"[{xa:g}, {xb:g}]; last x={xcur:g}")


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

    def beta_r(t):
        return float(traj.dense(t)[0])

    crossings = [ts[i] if on[i] else
                 _brentq(beta_r, float(ts[i]), float(ts[i + 1]),
                         1e-14 * max(1.0, abs(ts[i + 1])))
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
