"""Test-side oracles for the center-manifold reduction.

The printed closed forms of the quadratic manifold coefficients, the
drive-dependent trace whose finite difference gives -d, and the full state
on the quadratic manifold.  ``selfpulse.center_manifold`` computes the
same quantities by other routes; the tests compare the two.
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
