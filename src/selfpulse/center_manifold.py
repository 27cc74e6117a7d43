"""Quadratic center manifold in array form, normal form and limit-cycle prediction.

At the bifurcation the linearization splits into a marginal (center)
block acting on (beta_r, alpha_r) and a stable block acting on
(beta_i, alpha_i) deviations.  The manifold beta_i = h1(c), alpha_i =
h2(c) to quadratic order, the normal-form cubics and the coefficients d
and a are closed forms in ``closed_forms``; this module evaluates the
manifold and the normal-form map (the rows of ``normal_form_rows``, read on
each call) on arrays and predicts the limit cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# cm_report is re-exported: callers, the benchmark's tracer among them, name
# it center_manifold.cm_report.
from .closed_forms import (  # noqa: F401
    CMCoefficients,
    cm_report,
    hopf_frequency,
    hopf_threshold,
    lyapunov_coefficient,
    normal_form_rows,
    radial_growth_rate,
    require_representable,
)
from .errors import DomainError


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

def to_normal_form(kappa: float, gamma: float, beta_r, alpha_r):
    """Map center-plane coordinates to normal-form coordinates (u, v)."""
    _, ((ur, ua), (vr, va)) = normal_form_rows(float(kappa), float(gamma))
    x = np.asarray(beta_r, dtype=float)
    y = np.asarray(alpha_r, dtype=float)
    return ur * x + ua * y, vr * x + va * y


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
        ar = -self.omega_h * A * np.sin(th) - self.kappa * A / 2.0 * np.cos(th)
        bi = np.full_like(t, self.beta_i_const)
        ai = np.full_like(t, self.alpha_i_const)
        return np.column_stack([br, bi, ar, ai])

    @property
    def amplitude_beta_r(self) -> float:
        return 2.0 * abs(self.beta_i0h) * self.amplitude_A


def predict_limit_cycle(kappa: float, gamma: float, delta_epsilon: float) -> LimitCyclePrediction:
    """Normal-form amplitude A = sqrt(d*deps/|a|) and the predicted orbit.

    Warns when delta_epsilon exceeds 20% of the threshold drive, where
    the leading-order truncation degrades; an A that leaves the normal
    floats raises NumericalError first.
    """
    if not (delta_epsilon > 0):
        raise DomainError(f"delta_epsilon must be > 0, got {delta_epsilon}")
    hp = hopf_threshold(kappa, gamma)
    d = radial_growth_rate(kappa, gamma)
    a = lyapunov_coefficient(kappa, gamma)
    A = require_representable("A", math.sqrt(d * delta_epsilon / abs(a)), kappa, gamma,
                              delta_epsilon=delta_epsilon)
    if delta_epsilon > 0.2 * hp.epsilon_h:
        warnings.warn(
            f"delta_epsilon={delta_epsilon:.4g} exceeds 0.2*epsilon_h={0.2 * hp.epsilon_h:.4g}; "
            "the leading-order prediction degrades this far from threshold",
            stacklevel=2,
        )
    return LimitCyclePrediction(
        kappa=kappa,
        amplitude_A=A,
        omega_h=hopf_frequency(kappa, gamma),
        beta_i0h=hp.beta_i0h,
        beta_i_const=hp.beta_i0h - 2.0 * delta_epsilon / (3.0 * kappa + 4.0 * gamma),
        alpha_i_const=hp.alpha_i0h - d * delta_epsilon,
    )
