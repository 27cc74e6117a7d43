"""Quadratic center manifold, normal form and limit-cycle prediction.

At the bifurcation the linearization splits into a marginal (center)
block acting on (beta_r, alpha_r) and a stable block acting on
(beta_i, alpha_i) deviations.  The manifold beta_i = h1(c), alpha_i =
h2(c) is computed to quadratic order by solving the 6x6 linear system
expressing invariance (tangency) at that order; the tests check it
against the printed closed forms for the coefficients.

Homogeneous polynomials in two variables are handled as coefficient
vectors: a quadratic (q20, q11, q02) stands for q20 x^2 + q11 x y +
q02 y^2, a cubic (p30, p21, p12, p03) likewise, so substitution of
linear forms reduces to convolution.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .semiclassics import hopf_frequency, hopf_threshold, rate_ratio, require_representable

#: Absolute residual allowed for the quadratic tangency equations.
TANGENCY_TOL = 1e-10


# ---------------------------------------------------------------------------
# quadratic manifold coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMCoefficients:
    """Quadratic coefficients of the manifold (h1 for beta_i, h2 for alpha_i)."""

    A1: float
    B1: float
    C1: float
    A2: float
    B2: float
    C2: float
    residual: float


def center_block(kappa: float, gamma: float) -> np.ndarray:
    """Marginal 2x2 block acting on (beta_r, alpha_r) deviations."""
    b = hopf_threshold(kappa, gamma).beta_i0h
    return np.array([[kappa / 2.0, 2.0 * b], [-2.0 * b, -kappa / 2.0]])


def stable_block(kappa: float, gamma: float) -> np.ndarray:
    """Stable 2x2 block acting on (beta_i, alpha_i) deviations."""
    b = hopf_threshold(kappa, gamma).beta_i0h
    return np.array([[-gamma - kappa / 2.0, 2.0 * b], [-2.0 * b, -kappa / 2.0]])


def _directional_matrix(M: np.ndarray) -> np.ndarray:
    """Map quadratic coefficients q to those of grad(q) . (M c)."""
    m00, m01, m10, m11 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    return np.array([
        [2.0 * m00, m10, 0.0],
        [2.0 * m01, m00 + m11, 2.0 * m10],
        [0.0, m01, 2.0 * m11],
    ])


def cm_coefficients(kappa: float, gamma: float) -> CMCoefficients:
    """Solve the quadratic-order tangency equations for the manifold.

    Requiring that s = h(c) be invariant under the flow at quadratic
    order gives, with L_c and L_s the center/stable blocks and f the
    pure-center quadratic source of the stable equations,

        grad(h_i)(c) . (L_c c) - [L_s h(c)]_i = f_i(c),

    a 6x6 linear system for (A1, B1, C1, A2, B2, C2).  The source is
    f = (2 x y, x^2) in the center coordinates c = (x, y).

    Raises
    ------
    NumericalError
        If the system is singular or the residual exceeds TANGENCY_TOL
        (cannot occur for kappa > 0: the stable block has no eigenvalue
        equal to a sum of center eigenvalues).
    """
    Lc = center_block(kappa, gamma)
    Ls = stable_block(kappa, gamma)
    Dop = _directional_matrix(Lc)

    M = np.zeros((6, 6))
    M[0:3, 0:3] = Dop - Ls[0, 0] * np.eye(3)
    M[0:3, 3:6] = -Ls[0, 1] * np.eye(3)
    M[3:6, 0:3] = -Ls[1, 0] * np.eye(3)
    M[3:6, 3:6] = Dop - Ls[1, 1] * np.eye(3)
    rhs = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 0.0])

    try:
        w = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tangency system singular at kappa={kappa}, gamma={gamma}") from exc
    residual = float(np.max(np.abs(M @ w - rhs)))
    if residual > TANGENCY_TOL:
        raise NumericalError(
            f"tangency residual {residual:.3e} exceeds {TANGENCY_TOL:.0e} "
            f"at kappa={kappa}, gamma={gamma}"
        )
    A1, B1, C1, A2, B2, C2 = w
    return CMCoefficients(
        A1=A1, B1=B1, C1=C1, A2=A2, B2=B2, C2=C2, residual=residual,
    )


def evaluate_manifold(cm: CMCoefficients, beta_r, alpha_r):
    """Quadratic manifold offsets (h1, h2) relative to (beta_i0h, alpha_i0h)."""
    x = np.asarray(beta_r, dtype=float)
    y = np.asarray(alpha_r, dtype=float)
    h1 = cm.A1 * x**2 + cm.B1 * x * y + cm.C1 * y**2
    h2 = cm.A2 * x**2 + cm.B2 * x * y + cm.C2 * y**2
    return h1, h2


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def normal_form_transform(kappa: float, gamma: float):
    """Linear change of variables (beta_r, alpha_r) = T (u, v) and its inverse.

    T = [[0, 2 beta_i0h], [omega_h, -kappa/2]]; the inverse is evaluated
    from its printed component form rather than by matrix inversion, so
    T @ Tinv == I is a genuine consistency check.  ``kappa`` and ``gamma``
    are scalars (Python or numpy, 0-d arrays included).  Results are
    memoised per (float(kappa), float(gamma)), since full-mode phase noise
    maps every step through the same transform; the returned arrays are
    shared between calls and therefore read-only.
    """
    return _normal_form_transform(float(kappa), float(gamma))


@functools.lru_cache(maxsize=64)
def _normal_form_transform(kappa: float, gamma: float):
    b = hopf_threshold(kappa, gamma).beta_i0h
    om = hopf_frequency(kappa, gamma)
    T = np.array([[0.0, 2.0 * b], [om, -kappa / 2.0]])
    Tinv = np.array([
        [kappa / (4.0 * om * b), 1.0 / om],
        [1.0 / (2.0 * b), 0.0],
    ])
    T.flags.writeable = False
    Tinv.flags.writeable = False
    return T, Tinv


def to_normal_form(kappa: float, gamma: float, beta_r, alpha_r):
    """Map center-plane coordinates to normal-form coordinates (u, v)."""
    _, Tinv = normal_form_transform(kappa, gamma)
    x = np.asarray(beta_r, dtype=float)
    y = np.asarray(alpha_r, dtype=float)
    u = Tinv[0, 0] * x + Tinv[0, 1] * y
    v = Tinv[1, 0] * x + Tinv[1, 1] * y
    return u, v


def reduced_cubics(cm: CMCoefficients):
    """Cubic terms of the flow reduced to the manifold ``cm``, in (beta_r, alpha_r).

    Returns (N1, N3): coefficient vectors over (x^3, x^2 y, x y^2, y^3)
    for the beta_r and alpha_r equations respectively.
    """
    N1 = 2.0 * np.array([-cm.A2, cm.A1 - cm.B2, cm.B1 - cm.C2, cm.C1])
    N3 = -2.0 * np.array([cm.A1, cm.B1, cm.C1, 0.0])
    return N1, N3


def _compose_cubic(p: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Substitute linear forms x = X.(u,v), y = Y.(u,v) into a cubic."""
    out = np.zeros(4)
    for c, i, j in zip(p, (3, 2, 1, 0), (0, 1, 2, 3)):
        poly = np.array([1.0])
        for _ in range(i):
            poly = np.convolve(poly, X)
        for _ in range(j):
            poly = np.convolve(poly, Y)
        out += c * poly
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
    (X, Y), _ = normal_form_transform(kappa, gamma)  # beta_r = X.(u,v), alpha_r = Y.(u,v)
    N1uv = _compose_cubic(N1, X, Y)
    N3uv = _compose_cubic(N3, X, Y)
    Nu = kappa / (4.0 * b * om) * N1uv + N3uv / om
    Nv = N1uv / (2.0 * b)
    return Nu, Nv


def radial_growth_rate(kappa: float, gamma: float) -> float:
    """Linear growth coefficient d of the radial normal form dr/dt = d*deps*r.

    d = sqrt(8 (1+r)) / ((3+4r) kappa), with r = gamma/kappa; d*kappa is
    the rate at which the trace of the center block falls with the drive.
    """
    r = rate_ratio(kappa, gamma)
    return require_representable("d", math.sqrt(8.0 * (1.0 + r)) / ((3.0 + 4.0 * r) * kappa),
                                 kappa, gamma)


def lyapunov_coefficient_numeric(kappa: float, gamma: float, cm: CMCoefficients) -> float:
    """First Lyapunov coefficient from the composed planar cubic system.

    For du/dt = -om v + f(u,v), dv/dt = om u + g(u,v) with purely cubic
    f, g, the standard planar Hopf formula reduces to
    (f_uuu + f_uvv + g_uuv + g_vvv) / 16.
    """
    Nu, Nv = normal_form_cubics(kappa, gamma, cm)
    return (3.0 * Nu[0] + Nu[2] + Nv[1] + 3.0 * Nv[3]) / 8.0


def lyapunov_coefficient(kappa: float, gamma: float) -> float:
    """Cubic radial coefficient a (negative: the bifurcation is supercritical).

    With r = gamma/kappa, a = -kappa (1+r) P(r) / (4 Q(r)), where
    P = 99 + 490r + 808r^2 + 512r^3 + 128r^4 and
    Q = 51 + 284r + 576r^2 + 480r^3 + 128r^4, so a = -33 kappa/68 at
    gamma = 0.  ``lyapunov_coefficient_numeric`` is the independent route
    through the tangency solve, and ``cm_report`` reports both.  For r > 1,
    P/Q is evaluated as the ratio of the reversed polynomials in 1/r, since
    r^4 overflows from r ~ 1e77 while a ~ -kappa (1+r)/4 stays representable.
    """
    r = rate_ratio(kappa, gamma)
    if r <= 1.0:
        p = 99.0 + r * (490.0 + r * (808.0 + r * (512.0 + r * 128.0)))
        q = 51.0 + r * (284.0 + r * (576.0 + r * (480.0 + r * 128.0)))
    else:
        s = 1.0 / r
        p = 128.0 + s * (512.0 + s * (808.0 + s * (490.0 + s * 99.0)))
        q = 128.0 + s * (480.0 + s * (576.0 + s * (284.0 + s * 51.0)))
    return -require_representable("|a|", kappa * (1.0 + r) * p / (4.0 * q), kappa, gamma)


# ---------------------------------------------------------------------------
# limit-cycle prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitCyclePrediction:
    """Leading-order periodic orbit for drive epsilon_h + delta_epsilon.

    ``amplitude_A`` is the radius in normal-form units; the beta_r
    amplitude in the original variables is 2 |beta_i0h| A.  The
    imaginary components are the constant O(delta_epsilon)-corrected
    values consistent with the sqrt(delta_epsilon) truncation.
    """

    kappa: float
    amplitude_A: float
    omega_h: float
    beta_i0h: float
    beta_i_const: float
    alpha_i_const: float

    def orbit(self, t, phase: float = 0.0) -> np.ndarray:
        """States (n, 4) sampled along the predicted cycle at times ``t``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        th = self.omega_h * t + phase
        A = self.amplitude_A
        br = 2.0 * self.beta_i0h * A * np.cos(th)
        ar = self.omega_h * A * np.sin(th) - self.kappa * A / 2.0 * np.cos(th)
        bi = np.full_like(t, self.beta_i_const)
        ai = np.full_like(t, self.alpha_i_const)
        return np.column_stack([br, bi, ar, ai])

    @property
    def amplitude_beta_r(self) -> float:
        return 2.0 * abs(self.beta_i0h) * self.amplitude_A


def predict_limit_cycle(kappa: float, gamma: float, delta_epsilon: float) -> LimitCyclePrediction:
    """Normal-form amplitude A = sqrt(d*deps/|a|) and the predicted orbit.

    Warns when delta_epsilon exceeds 20% of the threshold drive, where
    the leading-order truncation degrades.
    """
    if not (delta_epsilon > 0):
        raise DomainError(f"delta_epsilon must be > 0, got {delta_epsilon}")
    hp = hopf_threshold(kappa, gamma)
    if delta_epsilon > 0.2 * hp.epsilon_h:
        warnings.warn(
            f"delta_epsilon={delta_epsilon:.4g} exceeds 0.2*epsilon_h={0.2 * hp.epsilon_h:.4g}; "
            "the leading-order prediction degrades this far from threshold",
            stacklevel=2,
        )
    d = radial_growth_rate(kappa, gamma)
    a = lyapunov_coefficient(kappa, gamma)
    A = math.sqrt(d * delta_epsilon / abs(a))
    return LimitCyclePrediction(
        kappa=kappa,
        amplitude_A=A,
        omega_h=hopf_frequency(kappa, gamma),
        beta_i0h=hp.beta_i0h,
        beta_i_const=hp.beta_i0h - 2.0 * delta_epsilon / (3.0 * kappa + 4.0 * gamma),
        alpha_i_const=hp.alpha_i0h - d * delta_epsilon,
    )


def cm_report(kappa: float, gamma: float) -> dict:
    """JSON-ready summary of the reduction at (kappa, gamma)."""
    hp = hopf_threshold(kappa, gamma)
    r = gamma / kappa  # solved at unit kappa: the coefficients scale as 1/kappa, a as kappa
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
