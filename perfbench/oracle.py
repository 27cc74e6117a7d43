"""Independent references for checking selfpulse outputs.

Nothing here calls selfpulse.  The equations of motion are restated in
complex form, dbeta/dt = 2i conj(beta) alpha - (gamma/2) beta - i epsilon and
dalpha/dt = i beta^2 - (kappa/2) alpha, and every reference is computed by a
route other than the package's: Cardano instead of safeguarded Newton,
central differences instead of a hand-written Jacobian, eigenvalue-sign
bisection instead of the threshold formula, eigendecomposition instead of
linear solves, Kronecker-product Lyapunov solves instead of Bartels-Stewart,
and DOP853 with event location instead of RK45 with bisection.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar


def flow(y, kappa, gamma, epsilon):
    """Vector field on real states (..., 4) ordered (beta_r, beta_i, alpha_r, alpha_i)."""
    y = np.asarray(y, dtype=float)
    beta = y[..., 0] + 1j * y[..., 1]
    alpha = y[..., 2] + 1j * y[..., 3]
    dbeta = 2j * np.conj(beta) * alpha - 0.5 * gamma * beta - 1j * epsilon
    dalpha = 1j * beta * beta - 0.5 * kappa * alpha
    return np.stack([dbeta.real, dbeta.imag, dalpha.real, dalpha.imag], axis=-1)


def fixed_point(kappa, gamma, epsilon):
    """Critical point (0, b, 0, -2 b^2/kappa) with b the real root of
    (4/kappa) b^3 + (gamma/2) b + epsilon = 0, by Cardano's formula and two
    Newton polishing steps.  Broadcasts over array arguments."""
    kappa, gamma, epsilon = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                  for v in (kappa, gamma, epsilon)))
    p = gamma * kappa / 8.0  # b^3 + p b + q = 0
    q = kappa * epsilon / 4.0
    root = np.sqrt(q * q / 4.0 + p**3 / 27.0)
    b = np.cbrt(-q / 2.0 + root) + np.cbrt(-q / 2.0 - root)
    for _ in range(2):
        f = b**3 + p * b + q
        df = 3.0 * b * b + p
        b = np.where(df > 0.0, b - f / np.where(df > 0.0, df, 1.0), b)
    zero = np.zeros_like(b)
    return np.stack([zero, b, zero, -2.0 * b * b / kappa], axis=-1)


def jacobian(kappa, gamma, epsilon, h=1e-3):
    """Jacobian (..., 4, 4) at the critical point by central differences.

    The flow is quadratic, so central differences are exact up to rounding.
    """
    y0 = fixed_point(kappa, gamma, epsilon)
    cols = []
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        cols.append((flow(y0 + step, kappa, gamma, epsilon)
                     - flow(y0 - step, kappa, gamma, epsilon)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def max_real_eig(kappa, gamma, epsilon):
    return np.max(np.linalg.eigvals(jacobian(kappa, gamma, epsilon)).real, axis=-1)


def hopf_threshold(kappa, gamma, rel=1e-13):
    """Drive at which the leading eigenvalue crosses zero, by bisection on its
    sign (vectorized over parameter arrays)."""
    kappa, gamma = np.broadcast_arrays(np.asarray(kappa, float), np.asarray(gamma, float))
    lo = np.zeros(kappa.shape)
    hi = np.ones(kappa.shape)
    for _ in range(64):
        grow = max_real_eig(kappa, gamma, hi) <= 0.0
        if not np.any(grow):
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
    else:
        raise ValueError("no drive up to 2**64 destabilizes the critical point")
    while np.any(hi - lo > rel * hi):
        mid = 0.5 * (lo + hi)
        up = max_real_eig(kappa, gamma, mid) > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return 0.5 * (lo + hi)


def marginal_frequency(kappa, gamma, epsilon):
    """|Im| of the eigenvalue with the smallest |Re| at the given drive."""
    ev = np.linalg.eigvals(jacobian(kappa, gamma, epsilon))
    idx = np.argmin(np.abs(ev.real), axis=-1)
    return np.abs(np.take_along_axis(ev, idx[..., None], axis=-1)[..., 0].imag)


def noise_matrices(kappa, gamma, epsilon):
    """Drift A and diffusion D of the linearized doubled-phase-space equations
    d(x)/dt = -A x + noise, x = (d_beta, d_beta_dag, d_alpha, d_alpha_dag).

    The drift is the complex-variable derivative of ``flow`` at the critical
    point, with conj(beta) as an independent variable; the diffusion is
    diag(2i alpha0, -2i conj(alpha0), 0, 0) from the parametric term.
    """
    _, b, _, a = fixed_point(kappa, gamma, epsilon)
    beta0, alpha0 = 1j * b, 1j * a
    g2, k2 = gamma / 2.0, kappa / 2.0
    # Row i holds the derivatives of d(x_i)/dt by (beta, beta_dag, alpha, alpha_dag).
    drift = np.array([
        [-g2, 2j * alpha0, 2j * np.conj(beta0), 0.0],
        [-2j * np.conj(alpha0), -g2, 0.0, -2j * beta0],
        [2j * beta0, 0.0, -k2, 0.0],
        [0.0, -2j * np.conj(beta0), 0.0, -k2],
    ])
    diffusion = np.diag([2j * alpha0, -2j * np.conj(alpha0), 0.0, 0.0])
    return -drift.real, diffusion.real


def spectrum(A, D, omegas):
    """S(w) = (2 pi)^-1 (iw + A)^-1 D (-iw + A^T)^-1 for each w, through the
    eigendecomposition A = V diag(lam) V^-1.  Returns (n, 4, 4)."""
    lam, V = np.linalg.eig(A)
    Vinv = np.linalg.inv(V)
    om = np.asarray(omegas, dtype=float)[:, None]
    left = (V[None, :, :] / (1j * om + lam)[:, None, :]) @ Vinv  # (iw + A)^-1
    right = (V[None, :, :] / (-1j * om + lam)[:, None, :]) @ Vinv  # (-iw + A)^-1
    return left @ D @ np.swapaxes(right, 1, 2) / (2.0 * math.pi)


def spectral_peak(A, D, i, j, omega_max=2.0):
    """Location of the interior maximum of |S_ij(w)| on w > 0."""
    grid = np.linspace(omega_max / 4000.0, omega_max, 4000)
    mag = np.abs(spectrum(A, D, grid)[:, i, j])
    k = int(np.argmax(mag))
    if k in (0, len(grid) - 1):
        return math.nan
    res = minimize_scalar(lambda w: -abs(spectrum(A, D, [w])[0, i, j]),
                          bounds=(grid[k - 1], grid[k + 1]), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def continuous_covariance(A, D):
    """Solve A S + S A^T = D through its Kronecker-product form."""
    eye = np.eye(len(A))
    vec = np.linalg.solve(np.kron(eye, A) + np.kron(A, eye), D.reshape(-1))
    return vec.reshape(A.shape)


def euler_covariance(A, D, dt):
    """Stationary covariance of the Euler-Maruyama chain x' = (I - dt A) x +
    sqrt(dt) D^(1/2) xi, i.e. S = F S F^T + dt D with F = I - dt A.  This is
    the exact target of a finite-dt ensemble, free of the O(dt) bias that
    separates it from ``continuous_covariance``."""
    F = np.eye(len(A)) - dt * A
    vec = np.linalg.solve(np.eye(A.size) - np.kron(F, F), dt * D.reshape(-1))
    return vec.reshape(A.shape)


def euler_periodogram(A, D, dt, n_samples, component, omegas):
    """Expected Hann-windowed periodogram (estimate_psd normalization) of one
    component of the stationary Euler-Maruyama chain, at ``omegas``.

    E|sum_k w_k x_k e^{-iwk dt}|^2 = sum_m c(m) R(m) e^{-iwm dt}, where
    R(m) = (F^m S)[c, c] is the chain's autocovariance and c(m) the window's
    autocorrelation.
    """
    F = np.eye(len(A)) - dt * A
    X = euler_covariance(A, D, dt)
    R = np.empty(n_samples)
    for m in range(n_samples):
        R[m] = X[component, component]
        X = F @ X
    w = np.hanning(n_samples)
    c = np.correlate(w, w, mode="full")[n_samples - 1:]
    lags = np.arange(1, n_samples) * dt
    weights = c[1:] * R[1:]
    total = np.array([c[0] * R[0] + 2.0 * np.sum(weights * np.cos(o * lags))
                      for o in np.asarray(omegas, dtype=float)])
    return total * dt / (2.0 * math.pi * float((w**2).sum()))


def orbit_period(state, kappa, gamma, epsilon, span):
    """Period of the orbit through ``state``: the spacing of its last two
    crossings of the section beta_r = 0 with alpha_r < 0, located as DOP853
    events over ``span`` time units."""
    def section(t, y):
        return y[0]
    sol = solve_ivp(lambda t, y: flow(y, kappa, gamma, epsilon), (0.0, span),
                    np.asarray(state, dtype=float), method="DOP853",
                    rtol=1e-11, atol=1e-13, events=section)
    times = [t for t, y in zip(sol.t_events[0], sol.y_events[0]) if y[2] < 0.0]
    if len(times) < 2:
        return math.nan
    return float(times[-1] - times[-2])
