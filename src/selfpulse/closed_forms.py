"""Closed forms at the critical point and the Hopf point, on floats alone.

The fixed-point cubic and its root, the spectrum of the linearization from
its two 2x2 blocks, the threshold epsilon_h, the frequency omega_h, the
radial rate d, the Lyapunov coefficient a and its numeric route through the
quadratic manifold, and the phase-diffusion constant.  With r = gamma/kappa
each Hopf-point quantity is kappa^p f(r).  This module imports no numpy, so
the commands that need nothing else (fixed-point, hopf, sweep) start
without it; the array layers import these names from here.

Homogeneous polynomials in two variables are handled as coefficient lists:
a quadratic (q20, q11, q02) stands for q20 x^2 + q11 x y + q02 y^2, a cubic
(p30, p21, p12, p03) likewise, so substitution of linear forms reduces to
convolution.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass

from .errors import DomainError, NumericalError
from .model import SystemParams

#: |Re(lambda)| below which an eigenvalue pair counts as marginal.
MARGINAL_TOL = 1e-8

#: Residual allowed for the quadratic tangency equations, relative to the
#: largest term of each equation.
TANGENCY_TOL = 1e-10


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


def require_representable(name: str, value: float, kappa: float, gamma: float,
                          **inputs: float) -> float:
    """Return ``value``, positive in exact arithmetic; NumericalError unless a normal float.

    The message names kappa, gamma and any further ``inputs`` by keyword.
    """
    if not sys.float_info.min <= value < math.inf:
        more = "".join(f", {key}={x:g}" for key, x in inputs.items())
        raise NumericalError(
            f"{name} is {value:g}, out of range at kappa={kappa:g}, gamma={gamma:g}{more}")
    return value


# ---------------------------------------------------------------------------
# critical point and its stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    """Imaginary-axis critical point (0, beta_i0, 0, alpha_i0)."""

    beta_i0: float
    alpha_i0: float
    residual: float

    def to_vector(self):
        """The state (0, beta_i0, 0, alpha_i0) as a numpy array."""
        import numpy as np  # deferred: the closed-form commands start without numpy

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


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: tuple
    classification: str
    max_real_part: float


def _block_eigenvalues(p: float, q: float, s: float, t: float) -> tuple:
    """The two eigenvalues of the real block [[p, q], [s, t]], for q s <= 0.

    The square root of the discriminant ((p - t)/2)^2 + q s is taken as a
    product of square roots of two factors, and the small root of a real
    pair as the determinant over the large root, so neither overflows nor
    cancels where the eigenvalues themselves do not.
    """
    m, h = (p + t) / 2.0, abs(p - t) / 2.0
    g = math.sqrt(abs(q)) * math.sqrt(abs(s))
    root = math.sqrt(abs(h - g)) * math.sqrt(h + g)
    if h < g:
        return complex(m, root), complex(m, -root)
    large = m + math.copysign(root, m)
    small = p * (t / large) - q * (s / large) if large else 0.0
    return complex(large, 0.0), complex(small, 0.0)


def classify_fixed_point(params: SystemParams, fp: FixedPoint) -> StabilityReport:
    """Eigenvalues and stability class of the critical point ``fp`` of ``params``.

    At (0, beta_i0, 0, alpha_i0) the Jacobian splits into the blocks
    [[-2 alpha_i0 - gamma/2, 2 beta_i0], [-2 beta_i0, -kappa/2]] on
    (beta_r, alpha_r) and [[2 alpha_i0 - gamma/2, 2 beta_i0], [-2 beta_i0,
    -kappa/2]] on (beta_i, alpha_i).  The four eigenvalues are sorted by
    real part, then imaginary part.
    """
    k2, g2 = params.kappa / 2.0, params.gamma / 2.0
    b, a = fp.beta_i0, fp.alpha_i0
    ev = tuple(sorted(_block_eigenvalues(-2.0 * a - g2, 2.0 * b, -2.0 * b, -k2)
                      + _block_eigenvalues(2.0 * a - g2, 2.0 * b, -2.0 * b, -k2),
                      key=lambda z: (z.real, z.imag)))
    mx = max(z.real for z in ev)
    if mx < -MARGINAL_TOL:
        label = "stable-focus/node"
    elif mx <= MARGINAL_TOL:
        label = "hopf-marginal"
    else:
        label = "unstable (limit-cycle regime)"
    return StabilityReport(eigenvalues=ev, classification=label, max_real_part=mx)


# ---------------------------------------------------------------------------
# the Hopf point
# ---------------------------------------------------------------------------

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


_SQRT3 = math.sqrt(3.0)


def hopf_eigenvalues(kappa: float, gamma: float) -> tuple:
    """Closed-form spectrum at the bifurcation, from the two 2x2 blocks.

    With r = gamma/kappa, the marginal pair is +/- i omega_h and the
    stable pair is kappa (-(1+r) +/- i sqrt(2(1+r) - r^2))/2, a real pair
    for r > 1 + sqrt 3.  There sqrt(r^2 - 2r - 2) is taken as
    sqrt(r - 1 - sqrt 3) sqrt(r - 1 + sqrt 3), since r^2 overflows past
    r ~ 1.3e154, and the small root as the pair's product
    kappa^2 (4r + 3)/4 over the large root, since -(1+r) + sqrt(r^2 -
    2r - 2) cancels as r grows.
    """
    om = hopf_frequency(kappa, gamma)
    r = rate_ratio(kappa, gamma)
    re2 = -kappa * (1.0 + r) / 2.0
    disc = 2.0 * (1.0 + r) - r * r
    if disc < 0.0:
        s = math.sqrt(r - 1.0 - _SQRT3) * math.sqrt(r - 1.0 + _SQRT3)
        small = -kappa * (4.0 * r + 3.0) / (2.0 * (1.0 + r + s))
        return 1j * om, -1j * om, complex(re2 - kappa * s / 2.0, 0.0), complex(small, 0.0)
    im2 = kappa * math.sqrt(disc) / 2.0
    return 1j * om, -1j * om, re2 + 1j * im2, re2 - 1j * im2


def default_cycle_dt(kappa: float, gamma: float) -> float:
    """Phase-noise step min(0.01/omega_h, 0.05/max|eig|) from the spectrum at the bifurcation."""
    return min(0.01 / hopf_frequency(kappa, gamma),
               0.05 / max(map(abs, hopf_eigenvalues(kappa, gamma))))


def radial_growth_rate(kappa: float, gamma: float) -> float:
    """Linear growth coefficient d of the radial normal form dr/dt = d*deps*r.

    d = sqrt(8 (1+r)) / ((3+4r) kappa), with r = gamma/kappa; d*kappa is
    the rate at which the trace of the center block falls with the drive.
    """
    r = rate_ratio(kappa, gamma)
    return require_representable("d", math.sqrt(8.0 * (1.0 + r)) / ((3.0 + 4.0 * r) * kappa),
                                 kappa, gamma)


#: The quartics P and Q of ``lyapunov_coefficient``, in ascending powers of r.
_P = (99.0, 490.0, 808.0, 512.0, 128.0)
_Q = (51.0, 284.0, 576.0, 480.0, 128.0)


def _poly(coefficients, r: float) -> float:
    """The polynomial with ``coefficients`` (ascending powers) at r, by Horner's rule.

    For r > 1, the reversed polynomial at 1/r: the value over r^degree, free of overflow.
    """
    x, terms = (r, reversed(coefficients)) if r <= 1.0 else (1.0 / r, coefficients)
    total = 0.0
    for c in terms:
        total = total * x + c
    return total


def lyapunov_coefficient(kappa: float, gamma: float) -> float:
    """Cubic radial coefficient a (negative: the bifurcation is supercritical).

    With r = gamma/kappa, a = -kappa (1+r) P(r) / (4 Q(r)) for the
    quartics P = ``_P`` and Q = ``_Q``, so a = -33 kappa/68 at gamma = 0.
    ``lyapunov_coefficient_numeric`` is the independent route through the
    quadratic manifold, and ``cm_report`` reports both.  For r > 1, P/Q is
    evaluated as the ratio of the reversed polynomials in 1/r (see
    ``_poly``), since r^4 overflows from r ~ 1e77 while a ~ -kappa (1+r)/4
    stays representable.
    """
    r = rate_ratio(kappa, gamma)
    return -require_representable("|a|", kappa * (1.0 + r) * _poly(_P, r) / (4.0 * _poly(_Q, r)),
                                  kappa, gamma)


# ---------------------------------------------------------------------------
# quadratic center manifold and the numeric route to a
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMCoefficients:
    """Quadratic coefficients of the manifold (h1 for beta_i, h2 for alpha_i).

    ``residual`` is the largest relative residual of the tangency equations
    at these coefficients (see ``cm_coefficients``).
    """

    A1: float
    B1: float
    C1: float
    A2: float
    B2: float
    C2: float
    residual: float


def _tangency_residual(r: float, w) -> float:
    """Largest residual of the quadratic tangency equations at unit kappa.

    For the manifold h_i = (A_i, B_i, C_i) the equations are grad(h_i)(c) .
    (L_c c) - [L_s h(c)]_i = f_i(c), with the center block L_c = [[1/2, 2b],
    [-2b, -1/2]], the stable block L_s = [[-r - 1/2, 2b], [-2b, -1/2]],
    b = beta_i0h and the source f = (2 x y, x^2).  Each of the six
    coefficient equations is measured relative to its largest term.
    """
    b2 = 2.0 * hopf_threshold(1.0, r).beta_i0h
    h1, h2 = w[:3], w[3:]

    def lie(A, B, C):  # terms of each coefficient of grad(q) . (L_c c)
        return (A, -b2 * B), (2.0 * b2 * A, -2.0 * b2 * C), (b2 * B, -C)

    rows = [(*d, (r + 0.5) * u, -b2 * v, -f)
            for d, u, v, f in zip(lie(*h1), h1, h2, (0.0, 2.0, 0.0))]
    rows += [(*d, 0.5 * v, b2 * u, -f)
             for d, u, v, f in zip(lie(*h2), h1, h2, (1.0, 0.0, 0.0))]
    return max(abs(sum(t)) / max(map(abs, t)) for t in rows)


#: Numerators of the manifold coefficients A1, B1, C1, A2, B2, C2 at unit
#: kappa over Q(r) = (3 + 4r)(17 + 72r + 96r^2 + 32r^3), the ``_Q`` of
#: ``lyapunov_coefficient``: a constant, whether the factor sqrt(2 (1+r))
#: enters, and a polynomial in r in ascending powers.
_CM_NUMERATORS = (
    (-2.0, True, (27.0, 92.0, 96.0, 16.0)),
    (4.0, False, (33.0, 124.0, 164.0, 64.0)),  # (11 + 34r + 32r^2)(3 + 2r)
    (-4.0, True, (3.0, 8.0, 16.0, 8.0)),  # (1 + 2r + 4r^2)(3 + 2r)
    (2.0, False, (15.0, 82.0, 144.0, 112.0, 32.0)),  # (5 + 24r + 32r^2 + 16r^3)(3 + 2r)
    (-8.0, True, (6.0, 19.0, 10.0)),  # (2 + 5r)(3 + 2r)
    (8.0, False, (15.0, 61.0, 82.0, 44.0, 8.0)),  # (1 + 2r)(5 + 2r)(1 + r)(3 + 2r)
)


def cm_coefficients(kappa: float, gamma: float) -> CMCoefficients:
    """The quadratic manifold beta_i = h1(c), alpha_i = h2(c) from its closed forms.

    With r = gamma/kappa each coefficient is f(r)/kappa, a rational
    function of r (see ``_CM_NUMERATORS``), times sqrt(2 (1+r)) for A1, C1
    and B2.  For r > 1 ``_poly`` evaluates the polynomials reversed, in
    1/r, so no power of r overflows.  ``residual``
    is that of the tangency equations the forms solve (see
    ``_tangency_residual``); the tests solve those equations as a 6x6
    linear system and compare.

    Raises
    ------
    NumericalError
        If the residual exceeds TANGENCY_TOL, as where r itself nears the
        largest float.
    """
    r = rate_ratio(kappa, gamma)
    root = math.sqrt(2.0 * (1.0 + r))
    den = _poly(_Q, r)
    w = []
    for c, rooted, numerator in _CM_NUMERATORS:
        v = c * (root if rooted else 1.0) * _poly(numerator, r) / den
        if r > 1.0:  # times r^(deg numerator - deg Q), one factor 1/r at a time
            for _ in range(len(_Q) - len(numerator)):
                v *= 1.0 / r
        w.append(v)
    residual = _tangency_residual(r, w)
    if not residual <= TANGENCY_TOL:
        raise NumericalError(
            f"tangency residual {residual:.3e} exceeds {TANGENCY_TOL:.0e} "
            f"at kappa={kappa}, gamma={gamma}"
        )
    A1, B1, C1, A2, B2, C2 = (v / kappa for v in w)
    return CMCoefficients(A1=A1, B1=B1, C1=C1, A2=A2, B2=B2, C2=C2, residual=residual)


def normal_form_rows(kappa: float, gamma: float) -> tuple:
    """Rows of T and of its inverse, where (beta_r, alpha_r) = T (u, v).

    T = [[0, 2 beta_i0h], [omega_h, -kappa/2]]; the inverse is written
    from its printed component form rather than by inversion, so T Tinv = I
    is a genuine consistency check.
    """
    b = hopf_threshold(kappa, gamma).beta_i0h
    om = hopf_frequency(kappa, gamma)
    T = ((0.0, 2.0 * b), (om, -kappa / 2.0))
    Tinv = ((kappa / (4.0 * om * b), 1.0 / om), (1.0 / (2.0 * b), 0.0))
    return T, Tinv


def reduced_cubics(cm: CMCoefficients):
    """Cubic terms of the flow reduced to the manifold ``cm``, in (beta_r, alpha_r).

    Returns (N1, N3): coefficient lists over (x^3, x^2 y, x y^2, y^3)
    for the beta_r and alpha_r equations respectively.
    """
    N1 = [2.0 * -cm.A2, 2.0 * (cm.A1 - cm.B2), 2.0 * (cm.B1 - cm.C2), 2.0 * cm.C1]
    N3 = [-2.0 * cm.A1, -2.0 * cm.B1, -2.0 * cm.C1, -0.0]
    return N1, N3


def _convolve(a, b) -> list:
    """Coefficients of the product of two polynomials given by coefficient lists."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _compose_cubic(p, X, Y) -> list:
    """Substitute linear forms x = X.(u,v), y = Y.(u,v) into a cubic."""
    out = [0.0] * 4
    for c, i, j in zip(p, (3, 2, 1, 0), (0, 1, 2, 3)):
        poly = [1.0]
        for _ in range(i):
            poly = _convolve(poly, X)
        for _ in range(j):
            poly = _convolve(poly, Y)
        out = [o + c * q for o, q in zip(out, poly)]
    return out


def normal_form_cubics(kappa: float, gamma: float, cm: CMCoefficients):
    """Cubic coefficients (Nu, Nv) of the reduced flow in (u, v).

    Obtained by explicit polynomial composition of the reduced planar
    cubics with the linear transform; no hand-derived formulas enter.
    The linear part in (u, v) is the rotation [[0, -omega_h], [omega_h, 0]].
    """
    N1, N3 = reduced_cubics(cm)
    b = hopf_threshold(kappa, gamma).beta_i0h
    om = hopf_frequency(kappa, gamma)
    (X, Y), _ = normal_form_rows(kappa, gamma)  # beta_r = X.(u,v), alpha_r = Y.(u,v)
    N1uv = _compose_cubic(N1, X, Y)
    N3uv = _compose_cubic(N3, X, Y)
    Nu = [kappa / (4.0 * b * om) * n1 + n3 / om for n1, n3 in zip(N1uv, N3uv)]
    Nv = [n1 / (2.0 * b) for n1 in N1uv]
    return Nu, Nv


def lyapunov_coefficient_numeric(kappa: float, gamma: float, cm: CMCoefficients) -> float:
    """First Lyapunov coefficient from the composed planar cubic system.

    For du/dt = -om v + f(u,v), dv/dt = om u + g(u,v) with purely cubic
    f, g, the standard planar Hopf formula reduces to
    (f_uuu + f_uvv + g_uuv + g_vvv) / 16.
    """
    Nu, Nv = normal_form_cubics(kappa, gamma, cm)
    return (3.0 * Nu[0] + Nu[2] + Nv[1] + 3.0 * Nv[3]) / 8.0


def cm_report(kappa: float, gamma: float) -> dict:
    """JSON-ready summary of the reduction at (kappa, gamma)."""
    hp = hopf_threshold(kappa, gamma)
    r = gamma / kappa  # taken at unit kappa: the coefficients scale as 1/kappa, a as kappa
    cm = cm_coefficients(1.0, r)
    return {
        "kappa": kappa,
        "gamma": gamma,
        "beta_i0h": hp.beta_i0h,
        "alpha_i0h": hp.alpha_i0h,
        "coefficients": {k: v / kappa for k, v in asdict(cm).items() if k != "residual"},
        "d": radial_growth_rate(kappa, gamma),
        "a": lyapunov_coefficient(kappa, gamma),
        "a_numeric": kappa * lyapunov_coefficient_numeric(1.0, r, cm),
        "omega_h": hopf_frequency(kappa, gamma),
        "epsilon_h": hp.epsilon_h,
    }


# ---------------------------------------------------------------------------
# phase diffusion on the cycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseDiffusionConstant:
    """Analytic phase-diffusion rate, convention Var[phi(t)] = D_phi * t."""

    value: float            # s/(2 A^2) = prefactor * kappa / delta_epsilon
    prefactor: float        # 99/(272 sqrt(2)) ~ 0.25737
    rounded_value: float    # two-digit prefactor 0.26 widely quoted


def phase_diffusion_constant(kappa: float, delta_epsilon: float,
                             gamma: float = 0.0) -> PhaseDiffusionConstant:
    """Phase diffusion D_phi = s/(2 A^2) = 99 kappa / (272 sqrt(2) delta_epsilon).

    The ratio of the on-cycle noise intensity s = 1/kappa to twice the
    limit-cycle amplitude A^2 = 136 sqrt(2) delta_epsilon / (99 kappa^2),
    both valid for kappa >> gamma; a warning is emitted when gamma > 0.1 kappa.
    """
    if not (kappa > 0):
        raise DomainError(f"kappa must be > 0, got {kappa}")
    if not (delta_epsilon > 0):
        raise DomainError(f"delta_epsilon must be > 0, got {delta_epsilon}")
    if gamma > 0.1 * kappa:
        warnings.warn(
            f"gamma={gamma:.4g} is not small against kappa={kappa:.4g}; the "
            "phase-diffusion constant is derived in the kappa >> gamma regime",
            stacklevel=2,
        )
    prefactor = 99.0 / (272.0 * math.sqrt(2.0))
    return PhaseDiffusionConstant(
        value=require_representable("d_phi", prefactor * (kappa / delta_epsilon), kappa, gamma,
                                    delta_epsilon=delta_epsilon),
        prefactor=prefactor,
        rounded_value=0.26 * kappa / delta_epsilon,
    )
