"""Monte-Carlo layer: linearized SDE ensembles and on-cycle phase noise.

Every ensemble (linearized, reduced and full mode) is an Euler-Maruyama
chain driven by the same per-member normals, drawn in chunks of ``_CHUNK``
steps as the chain advances, so a run holds its recorded output plus one
chunk of noise, never the whole noise record.  The linearized chain is
linear in its state, so ``simulate_linear_sde`` evaluates it by blocks of
steps, one matrix product per block; the nonlinear reduced and full modes
step through ``_euler_maruyama``, each with its own step function.  The
phase-diffusion fit likewise sums over blocks of ``_CHUNK`` time columns.

Reproducibility contract: every ensemble member draws from its own
Philox4x64 stream with key = seed and counter high word = member index,
so (seed, member index) fully determines a path independent of batching
or ensemble size.  The analysis (bootstrap) stream uses a reserved
member index of 2**62.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .center_manifold import (
    normal_form_transform,
    predict_limit_cycle,
    radial_growth_rate,
    lyapunov_coefficient,
    to_normal_form,
)
from .csvio import write_csv
from .errors import DomainError, NumericalError
from .noise import LinearNoiseModel
from .semiclassics import (
    SystemParams,
    hopf_eigenvalues,
    hopf_frequency,
    hopf_threshold,
    vector_field,
)

_ANALYSIS_STREAM = 2**62
#: Steps of the linear chain advanced by one matrix product.
_BLOCK = 32
#: Steps of noise drawn at a time, and time columns per block of the
#: phase-diffusion sums; a multiple of _BLOCK, so no block spans two chunks.
_CHUNK = 32 * _BLOCK
#: Largest run an SDEConfig admits: member-steps (burn-in included) and
#: recorded samples (members x recorded times).
MAX_MEMBER_STEPS = 2 * 10**8
MAX_RECORDED = 2 * 10**7


def member_rng(seed: int, member: int) -> np.random.Generator:
    """Counter-based per-member stream; see the module docstring."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, member]))


def _noise_chunks(seed: int, members, n_burn: int, n_steps: int):
    """Unit normals of ``members`` for ``n_burn`` and then ``n_steps`` steps, by chunks.

    Yields arrays of shape (len(members), l, 2), l <= ``_CHUNK``, row i
    drawn from member members[i]'s stream.  The burn-in and the recorded
    steps are chunked apart, each from its first step, so no chunk holds
    both.  The chunks are views of one buffer, valid until the next is
    drawn.  A stream drawn in chunks gives the same numbers as one draw.
    """
    rngs = [member_rng(seed, m) for m in members]
    # One step of padding per row: at a row stride of a power of two, the
    # members' normals for one step would all fall in the same cache set.
    buf = np.empty((len(rngs), min(_CHUNK, max(n_burn, n_steps)) + 1, 2))
    for span in (n_burn, n_steps):
        for k in range(0, span, _CHUNK):
            xi = buf[:, :min(_CHUNK, span - k)]
            for rng, row in zip(rngs, xi):
                rng.standard_normal(out=row)
            yield xi


def _euler_maruyama(config, state, step, out: np.ndarray, observe):
    """Run an ensemble through burn-in and ``config.n_steps`` recorded steps.

    ``step(state, dw)`` advances the whole batch given its normals ``dw``,
    shape (n, 2), member i drawing from stream i.
    ``observe(state)`` is written to ``out[:, 0]`` after burn-in and to
    ``out[:, j]`` after the j-th recorded step.  Returns the final state.
    """
    n_burn = int(round(config.burn_in / config.dt))
    if n_burn == 0:
        out[:, 0] = observe(state)
    k = 1 - n_burn  # column of out written after the next step
    for xi in _noise_chunks(config.seed, range(config.n_ensemble), n_burn, config.n_steps):
        for j in range(xi.shape[1]):
            state = step(state, xi[:, j])
            if k >= 0:
                out[:, k] = observe(state)
            k += 1
    return state


@dataclass(frozen=True)
class SDEConfig:
    """Euler-Maruyama run configuration.

    ``burn_in`` is in time units and is simulated before recording
    starts; ``n_steps`` counts recorded steps.
    """

    dt: float
    n_steps: int
    n_ensemble: int
    seed: int = 0
    burn_in: float = 0.0

    def __post_init__(self):
        if not (0 < self.dt < math.inf):
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if self.n_steps < 1 or self.n_ensemble < 1:
            raise DomainError("n_steps and n_ensemble must be >= 1")
        if not (0 <= self.burn_in < math.inf):
            raise DomainError(f"burn_in must be finite and >= 0, got {self.burn_in}")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        member_steps = self.n_ensemble * (self.burn_in / self.dt + self.n_steps)
        recorded = self.n_ensemble * (self.n_steps + 1)
        if not (member_steps <= MAX_MEMBER_STEPS and recorded <= MAX_RECORDED):
            raise DomainError(
                f"n_ensemble={self.n_ensemble}, n_steps={self.n_steps} and "
                f"burn_in={self.burn_in} ask for {member_steps:.4g} member-steps and "
                f"{recorded:.4g} recorded samples; the limits are {MAX_MEMBER_STEPS:.0e} "
                f"and {MAX_RECORDED:.0e}")


def default_cycle_dt(kappa: float, gamma: float) -> float:
    """min(0.01/omega_h, 0.05/max|eig|) using the marginal-point spectrum."""
    om_h = hopf_frequency(kappa, gamma)
    lam = float(np.max(np.abs(hopf_eigenvalues(kappa, gamma))))
    return min(0.01 / om_h, 0.05 / lam)


def _linear_block_maps(M: np.ndarray, noise_scale: np.ndarray, L: int):
    """P = [M, M^2, ..., M^L], shape (4, 4L), and the noise map T, shape (2L, 4L).

    For the chain x_{k+1} = x_k M + c_k with c_k = noise_scale * xi_k on
    channels 0 and 1, the states of a block are
    [x_{k+1}, ..., x_{k+L}] = x_k P + [xi_k, ..., xi_{k+L-1}] T,
    where block (i, j) of T is rows 0-1 of M^(j-i), scaled, for j >= i.
    """
    powers = [np.eye(4)]
    for _ in range(L):
        powers.append(powers[-1] @ M)
    T = np.zeros((L, 2, L, 4))
    for lag in range(L):
        i = np.arange(L - lag)
        T[i, :, i + lag] = noise_scale[:, None] * powers[lag][:2]
    return np.hstack(powers[1:]), T.reshape(2 * L, 4 * L)


def simulate_linear_sde(model: LinearNoiseModel, config: SDEConfig,
                        member_offset: int = 0) -> np.ndarray:
    """Euler-Maruyama ensemble of the linearized equations.

    Independent real unit-variance Gaussian increments feed the two
    nonzero noise channels through sqrt(D_ii); because A and D are real
    at the fixed point the paths are real and the conjugate-pair
    components agree in distribution.  Each Euler step is linear,
    x_{k+1} = x_k (I - dt A^T) + c_k, so the chain is evaluated by blocks
    of ``_BLOCK`` steps, one matrix product per block, from the same
    per-member normals a step-by-step loop would draw.  A member's path
    does not depend on batching or ensemble size, bit for bit, and
    matches a member-by-member loop to rounding only.

    Returns
    -------
    ndarray, shape (n_ensemble, n_steps + 1, 4)
        Recorded paths, including the post-burn-in initial state.
    """
    A = model.drift_A
    D = np.diag(model.diffusion_D)
    lam = float(np.max(np.abs(np.linalg.eigvals(A))))
    if config.dt * lam > 0.05:
        raise DomainError(
            f"stability guard violated: dt*max|eig A| = {config.dt * lam:.4g} > 0.05"
        )
    dt = config.dt
    sqD = np.sqrt(np.clip(D[:2], 0.0, None))  # channels 2, 3 carry no noise
    L = _BLOCK
    P, T = _linear_block_maps(np.eye(4) - dt * A.T, sqD * math.sqrt(dt), L)
    n_burn = int(round(config.burn_in / dt))
    n_steps = config.n_steps
    members = range(member_offset, member_offset + config.n_ensemble)
    # numpy hands a one-row product to gemv, which rounds unlike the gemm of
    # a batch; a duplicate row, drawn from a second copy of the member's
    # stream, keeps a lone member's bits equal to its batched ones.
    if config.n_ensemble == 1:
        members = [member_offset] * 2
    rows = len(members)

    x = np.zeros((rows, 4))
    out = np.empty((rows, n_steps + 1, 4))
    flat = out.reshape(rows, -1)
    k = -n_burn  # recorded steps done
    for xi in _noise_chunks(config.seed, members, n_burn, n_steps):
        if k == 0:
            out[:, 0] = x
        for j in range(0, xi.shape[1], L):
            l = min(L, xi.shape[1] - j)
            noise = xi[:, j:j + l].reshape(rows, 2 * l)
            if k < 0:  # burn-in needs only the last state of a block
                last = slice(4 * l - 4, 4 * l)
                x = x @ P[:, last] + noise @ T[:2 * l, last]
            else:
                block = flat[:, 4 * k + 4:4 * (k + l) + 4]
                np.matmul(noise, T[:2 * l, :4 * l], out=block)
                block += x @ P[:, :4 * l]
                x = block[:, -4:]
            k += l
    return out[:config.n_ensemble]


def stationary_covariance(model: LinearNoiseModel) -> np.ndarray:
    """Stationary covariance S from the Lyapunov equation A S + S A^T = D.

    Solved as the 16x16 linear system (A (x) I + I (x) A) vec(S) = vec(D),
    with vec row-major.  Unlike a route through the eigenvectors of A, this
    stays accurate where A is defective.
    """
    A = model.drift_A
    eye = np.eye(len(A))
    K = np.kron(A, eye) + np.kron(eye, A)
    return np.linalg.solve(K, model.diffusion_D.ravel()).reshape(A.shape)


def estimate_psd(paths: np.ndarray, dt: float, omega_ref: float = None):
    """Averaged Hann-windowed periodogram of one recorded component.

    Normalization matches the two-sided 1/(2 pi) convention of the
    analytic spectrum: for a stationary signal the estimate converges
    to (1/2pi) times the Fourier transform of the autocorrelation.

    Parameters
    ----------
    paths : ndarray, shape (n_paths, n_samples)
        Stationary (post burn-in) segments, one row per path.
    dt : float
        Sample spacing.
    omega_ref : float, optional
        When given, the segment must cover at least 16 periods of this
        angular frequency, else DomainError.

    Returns
    -------
    (omega_grid, psd) : ndarray pair, frequencies ascending.
    """
    paths = np.atleast_2d(np.asarray(paths))
    n_samples = paths.shape[1]
    if omega_ref is not None:
        needed = 16.0 * 2.0 * math.pi / omega_ref
        have = n_samples * dt
        if have < needed:
            raise DomainError(
                f"segment of {have:.4g} time units is shorter than 16 periods "
                f"({needed:.4g}) of omega={omega_ref:.4g}"
            )
    w = np.hanning(n_samples)
    wpow = float((w**2).sum())
    X = np.fft.fft(paths * w, axis=1) * dt
    psd = (np.abs(X) ** 2).mean(axis=0) / (2.0 * math.pi * dt * wpow)
    omega = 2.0 * math.pi * np.fft.fftfreq(n_samples, d=dt)
    order = np.argsort(omega)
    return omega[order], psd[order]


@dataclass(frozen=True)
class PhaseRecord:
    """Unwrapped on-cycle phases, one row per surviving ensemble member."""

    times: np.ndarray
    phases: np.ndarray
    excluded: int
    noise_scale: float
    config: SDEConfig

    def _centred_blocks(self):
        """Yield (columns, y) by blocks of ``_CHUNK`` time columns.

        y holds each member's phase change since the first sample, less the
        ensemble mean, for those columns only.  Every y is a view of one
        buffer, which the caller may overwrite.
        """
        n, n_times = self.phases.shape
        buf = np.empty((n, min(_CHUNK, n_times)))
        for c in range(0, n_times, _CHUNK):
            cols = slice(c, min(c + _CHUNK, n_times))
            y = np.subtract(self.phases[:, cols], self.phases[:, :1], out=buf[:, :cols.stop - c])
            y -= y.mean(axis=0)
            yield cols, y

    @functools.cached_property
    def variance(self) -> np.ndarray:
        """Variance across members of the phase change; kept for the fit and the CSV writer."""
        var = np.empty(self.phases.shape[1])
        for cols, y in self._centred_blocks():
            y *= y
            var[cols] = y.sum(axis=0) / (self.phases.shape[0] - 1)
        return var


def simulate_limit_cycle_noise(params: SystemParams, delta_epsilon: float,
                               config: SDEConfig, mode: str = "reduced",
                               noise_scale: float = 1.0,
                               radial_noise: bool = False) -> PhaseRecord:
    """Phase noise on the limit cycle at drive epsilon_h + delta_epsilon.

    mode="reduced" integrates the planar normal-form pair
        dr = (d*deps*r + a*r^3) dt [+ sqrt(s'/2) dW_r]
        dphi = omega_h dt + (1/A) sqrt(s'/2) dW_phi
    with s' = noise_scale * s and s = 1/kappa the on-cycle intensity.
    The radial noise term is opt-in: at the physical intensity it
    dwarfs the radial confinement for any moderate delta_epsilon and
    knocks every member off the cycle, so the default simulates the
    on-cycle phase equation with deterministic radial relaxation.
    With ``radial_noise`` enabled, members whose radius collapses to
    zero are flagged and excluded; mode="full" rejects it.

    mode="full" integrates the 4-dim semiclassical flow with the same
    white noise injected along the center-plane directions of the
    normal-form transform, and reads the phase as atan2(u, v) through
    the inverse transform.  The realized rotation makes this phase
    decrease at |omega_h| for this flow's orientation; only the variance
    growth enters the diffusion fit.

    The fitted slope scales linearly in the injected intensity, so runs
    at reduced ``noise_scale`` (useful for the full mode, where the
    physical s would overwhelm a small cycle) estimate the same
    constant; ``measure_phase_diffusion`` reports the value rescaled to
    the physical s alongside the raw fit.
    """
    if not (delta_epsilon > 0):
        raise DomainError(f"delta_epsilon must be > 0, got {delta_epsilon}")
    if mode not in ("reduced", "full"):
        raise DomainError(f"mode must be 'reduced' or 'full', got {mode!r}")
    if radial_noise and mode == "full":
        raise DomainError("radial_noise applies to mode='reduced' only")
    if noise_scale < 0:
        raise DomainError(f"noise_scale must be >= 0, got {noise_scale}")
    kappa, gamma = params.kappa, params.gamma
    if gamma > 0.1 * kappa:
        warnings.warn(
            f"gamma={gamma:.4g} is not small against kappa={kappa:.4g}; the on-cycle "
            "noise intensity s = 1/kappa is derived for kappa >> gamma",
            stacklevel=2,
        )
    om_h = hopf_frequency(kappa, gamma)
    samples_per_period = 2.0 * math.pi / (om_h * config.dt)
    if samples_per_period <= 8.0:
        raise DomainError(
            f"dt={config.dt} gives {samples_per_period:.2f} samples per period; "
            "phase unwrapping needs more than 8"
        )

    s = 1.0 / kappa
    sig = math.sqrt(noise_scale * s / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # amplitude warning re-checked by callers
        pred = predict_limit_cycle(kappa, gamma, delta_epsilon)
    A_amp = pred.amplitude_A
    dt = config.dt
    sq = math.sqrt(dt)
    n = config.n_ensemble
    times = np.arange(config.n_steps + 1) * dt
    phases = np.empty((n, config.n_steps + 1))

    if mode == "reduced":
        d = radial_growth_rate(kappa, gamma)
        a = lyapunov_coefficient(kappa, gamma)
        sig_r = sig if radial_noise else 0.0

        def step(state, dw):
            r, phi, alive = state
            r = r + dt * (d * delta_epsilon * r + a * r**3) + sig_r * sq * dw[:, 0]
            phi = phi + dt * om_h + (sig / A_amp) * sq * dw[:, 1]
            return r, phi, alive & (r > 0.0)

        start = (np.full(n, A_amp), np.zeros(n), np.ones(n, dtype=bool))
        _, _, alive = _euler_maruyama(config, start, step, phases, lambda state: state[1])
        excluded = int(n - alive.sum())
        return PhaseRecord(times=times, phases=phases[alive] if excluded else phases,
                           excluded=excluded, noise_scale=noise_scale, config=config)

    # full mode
    eps = hopf_threshold(kappa, gamma).epsilon_h + delta_epsilon
    run = SystemParams(kappa=kappa, gamma=gamma, epsilon=eps)
    T, _ = normal_form_transform(kappa, gamma)
    # Columns of T give the (u, v) directions in the (beta_r, alpha_r) plane.
    dir_u = np.array([T[0, 0], 0.0, T[1, 0], 0.0])
    dir_v = np.array([T[0, 1], 0.0, T[1, 1], 0.0])

    def step(y, dw):
        return y + dt * vector_field(y, run) + sig * sq * (np.outer(dw[:, 0], dir_u)
                                                           + np.outer(dw[:, 1], dir_v))

    phi = prev = None

    def unwrapped_phase(y):
        nonlocal phi, prev
        ang = np.arctan2(*to_normal_form(kappa, gamma, y[:, 0], y[:, 2]))
        # nearest-branch continuation from the previous sample
        phi = ang if phi is None else phi + ((ang - prev + math.pi) % (2.0 * math.pi) - math.pi)
        prev = ang
        return phi

    _euler_maruyama(config, np.tile(pred.orbit(0.0)[0], (n, 1)), step, phases, unwrapped_phase)
    phases -= phases[:, :1].copy()  # with a view of phases itself, numpy would copy all of it
    return PhaseRecord(times=times, phases=phases, excluded=0, noise_scale=noise_scale,
                       config=config)


@dataclass(frozen=True)
class PhaseDiffusionFit:
    """Fit of Var[phi(t)] = D_phi * t (and its rescaling to physical s)."""

    d_phi_hat: float
    stderr: float
    d_phi_hat_physical: float
    stderr_physical: float
    r_squared: float
    n_members: int


def measure_phase_diffusion(record: PhaseRecord, n_bootstrap: int = 200) -> PhaseDiffusionFit:
    """Least-squares slope of the ensemble phase variance versus time.

    The variance at each time is taken across members (about the
    ensemble mean, which removes the common deterministic drift) and
    fitted through the origin.  The standard error comes from an
    ensemble bootstrap: the ``n_bootstrap`` (>= 2) resamples of members are
    kept as a (n_bootstrap, n) matrix W of draw counts, so each resample's
    variance follows from two matrix products with the centred phases,
    block by block of time columns, and no resampled copy of the record
    is built.  Sub-linear or saturating growth (R^2 < 0.9) raises
    NumericalError.
    """
    if n_bootstrap < 2:
        raise DomainError(f"n_bootstrap must be >= 2 for a standard error, got {n_bootstrap}")
    n = record.phases.shape[0]
    if n < 100:
        raise DomainError(f"need >= 100 surviving members, got {n}")
    t = record.times
    var = record.variance
    d_hat = float((var @ t) / (t @ t))
    # Identical (noise-free) members leave only summation dust in var.
    floor = (1e-12 * max(1.0, float(max(record.phases.max(), -record.phases.min())))) ** 2
    if float(var.max(initial=0.0)) <= floor:
        return PhaseDiffusionFit(d_phi_hat=0.0, stderr=0.0, d_phi_hat_physical=0.0,
                                 stderr_physical=0.0, r_squared=1.0, n_members=n)
    fit = d_hat * t
    ss_res = float(((var - fit) ** 2).sum())
    ss_tot = float(((var - var.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.9:
        raise NumericalError(
            f"variance growth is not linear (R^2 = {r2:.3f} < 0.9); the diffusion "
            "regime assumption is violated for this configuration"
        )

    # Resample b holds member i W[b, i] times (the same draws as indexing
    # the phase changes with them), so its sums of y and y^2 are W @ y and
    # W @ y^2, taken a block of time columns at a time.  Centring y on the
    # full-ensemble mean keeps the resampled means small, so the
    # sum-of-squares variance loses no significant digits.
    rng = member_rng(record.config.seed, _ANALYSIS_STREAM)
    W = np.empty((n_bootstrap, n))
    for b in range(n_bootstrap):
        W[b] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    boot_var_t = np.zeros(n_bootstrap)  # each resample's variance dotted with t
    for cols, y in record._centred_blocks():
        mean = (W @ y) / n
        y *= y
        boot_var_t += ((W @ y - n * mean**2) / (n - 1)) @ t[cols]
    stderr = float((boot_var_t / (t @ t)).std(ddof=1))
    scale = record.noise_scale if record.noise_scale > 0 else 1.0
    return PhaseDiffusionFit(
        d_phi_hat=d_hat,
        stderr=stderr,
        d_phi_hat_physical=d_hat / scale,
        stderr_physical=stderr / scale,
        r_squared=r2,
        n_members=n,
    )


def phase_record_to_csv(record: PhaseRecord, path) -> None:
    """Write `t,var_phi,n_effective` for the recorded window."""
    var = record.variance
    n_eff = record.phases.shape[0]
    write_csv(path, ("t", "var_phi", "n_effective"),
              np.column_stack([record.times, var, np.full_like(var, n_eff)]))
