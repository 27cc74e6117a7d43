"""Test-side oracles for the center-manifold reduction.

The quadratic manifold coefficients by the 6x6 tangency solve and in the
printed form in (kappa, gamma), the drive-dependent trace whose finite
difference gives -d, and the full state on the quadratic manifold.
``selfpulse.closed_forms`` computes the coefficients from their closed
forms in r = gamma/kappa; the tests compare the routes.
"""

import math

import numpy as np

from selfpulse import (
    CMCoefficients,
    SystemParams,
    cm_coefficients,
    evaluate_manifold,
    fixed_point,
    hopf_threshold,
)


def _beta_i0h(kappa: float, gamma: float) -> float:
    """beta_i0 at the Hopf point, -sqrt(kappa (kappa + gamma) / 8), in r = gamma/kappa."""
    return -kappa * math.sqrt((1.0 + gamma / kappa) / 8.0)


def center_block(kappa: float, gamma: float) -> np.ndarray:
    """Marginal 2x2 block acting on (beta_r, alpha_r) deviations."""
    b = _beta_i0h(kappa, gamma)
    return np.array([[kappa / 2.0, 2.0 * b], [-2.0 * b, -kappa / 2.0]])


def stable_block(kappa: float, gamma: float) -> np.ndarray:
    """Stable 2x2 block acting on (beta_i, alpha_i) deviations."""
    b = _beta_i0h(kappa, gamma)
    return np.array([[-gamma - kappa / 2.0, 2.0 * b], [-2.0 * b, -kappa / 2.0]])


def _directional_matrix(M: np.ndarray) -> np.ndarray:
    """Map quadratic coefficients q to those of grad(q) . (M c)."""
    m00, m01, m10, m11 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    return np.array([
        [2.0 * m00, m10, 0.0],
        [2.0 * m01, m00 + m11, 2.0 * m10],
        [0.0, m01, 2.0 * m11],
    ])


def tangency_solve(kappa: float, gamma: float) -> CMCoefficients:
    """The manifold coefficients by solving the quadratic-order tangency equations.

    Requiring that s = h(c) be invariant under the flow at quadratic
    order gives, with L_c and L_s the center/stable blocks and f the
    pure-center quadratic source of the stable equations,

        grad(h_i)(c) . (L_c c) - [L_s h(c)]_i = f_i(c),

    a 6x6 linear system for (A1, B1, C1, A2, B2, C2).  The source is
    f = (2 x y, x^2) in the center coordinates c = (x, y).  ``residual``
    is the largest absolute residual of the solved system.
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
    w = np.linalg.solve(M, rhs)
    A1, B1, C1, A2, B2, C2 = w.tolist()
    return CMCoefficients(A1=A1, B1=B1, C1=C1, A2=A2, B2=B2, C2=C2,
                          residual=float(np.max(np.abs(M @ w - rhs))))


def cm_denominator(kappa: float, gamma: float) -> float:
    """Common denominator of the closed-form manifold coefficients."""
    return kappa**2 * (4.0 * gamma + 3.0 * kappa) * (
        32.0 * gamma**3 + 96.0 * kappa * gamma**2 + 72.0 * kappa**2 * gamma + 17.0 * kappa**3
    )


def closed_form_cm_coefficients(kappa: float, gamma: float) -> CMCoefficients:
    """Closed-form manifold coefficients, for cross-checking the solve.

    The A1 numerator is typeset ambiguously in its published form; the
    reading used here (an overall minus sign, no additive 2) is the one
    that matches the tangency solve to machine precision.
    """
    k, g = kappa, gamma
    D = cm_denominator(k, g)
    root = math.sqrt(2.0) * math.sqrt(k * (k + g))
    A1 = -2.0 * root * k * (27.0 * k**3 + 92.0 * g * k**2 + 96.0 * k * g**2 + 16.0 * g**3) / D
    B1 = 4.0 * k**2 * (11.0 * k**2 + 34.0 * k * g + 32.0 * g**2) * (2.0 * g + 3.0 * k) / D
    C1 = -4.0 * (2.0 * g + 3.0 * k) * root * k * (k**2 + 2.0 * k * g + 4.0 * g**2) / D
    A2 = 2.0 * k * (5.0 * k**3 + 24.0 * g * k**2 + 32.0 * k * g**2 + 16.0 * g**3) * (2.0 * g + 3.0 * k) / D
    B2 = -8.0 * (2.0 * g + 3.0 * k) * root * k**2 * (2.0 * k + 5.0 * g) / D
    C2 = 8.0 * (k + 2.0 * g) * (5.0 * k + 2.0 * g) * k * (k + g) * (2.0 * g + 3.0 * k) / D
    return CMCoefficients(
        A1=A1, B1=B1, C1=C1, A2=A2, B2=B2, C2=C2, residual=0.0,
    )


def trace_of_epsilon(kappa: float, gamma: float, epsilon: float) -> float:
    """Drive-dependent trace expression -2 beta_i0(eps)^2/kappa - (kappa+gamma)/2.

    Its central finite difference through the threshold equals -d.
    """
    fp = fixed_point(SystemParams(kappa=kappa, gamma=gamma, epsilon=epsilon))
    return -2.0 * fp.beta_i0**2 / kappa - (kappa + gamma) / 2.0


def manifold_point(kappa: float, gamma: float, beta_r: float, alpha_r: float,
                   cm: CMCoefficients = None) -> np.ndarray:
    """Full state on the quadratic manifold above center coordinates (beta_r, alpha_r)."""
    if cm is None:
        cm = cm_coefficients(kappa, gamma)
    hp = hopf_threshold(kappa, gamma)
    h1, h2 = evaluate_manifold(cm, beta_r, alpha_r)
    return np.array([beta_r, hp.beta_i0h + float(h1), alpha_r, hp.alpha_i0h + float(h2)])
