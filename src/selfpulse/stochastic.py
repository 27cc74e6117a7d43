"""Monte-Carlo layer: linearized SDE ensembles and on-cycle phase noise.

Every ensemble (linearized, reduced and full mode) is an Euler-Maruyama
chain run by one driver, ``_euler_maruyama``, which owns the member list,
the burn-in and the recorded columns, and draws the per-member normals in
chunks of ``_CHUNK`` steps as the chain advances, so a run holds its
recorded output plus one chunk of noise, never the whole noise record.
Each chain supplies only its advance: the linearized chain is linear in its
state, so it advances by blocks of ``_BLOCK`` steps, one matrix product per
block; the reduced mode (the phase alone) and the nonlinear full mode (its
four state components, as four member arrays) take a whole chunk per call
and loop over its steps, and the full mode records the wrapped angle of
each step and unwraps the record once, in time order, after the run.
The phase-diffusion fit likewise sums over blocks of ``_CHUNK`` time columns.

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

from .center_manifold import predict_limit_cycle, radial_growth_rate
from .closed_forms import hopf_frequency, hopf_threshold, normal_form_rows
from .csvio import write_csv
from .errors import DomainError, NumericalError
from .model import SystemParams
from .noise import LinearNoiseModel
from .semiclassics import vector_field

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


def _euler_maruyama(config, start, advance, observe, shape=(), member_offset=0, block=1):
    """Run members ``member_offset`` onwards through burn-in and ``config.n_steps`` steps.

    ``start(rows)`` is the initial state of ``rows`` members.  ``advance(state,
    xi, dest)`` returns the state after the l <= ``block`` steps whose normals
    are ``xi``, shape (rows, l, 2), row i drawn from member i's stream, and
    records those l states in ``dest``, the next l columns of the output (None
    during burn-in).  Column 0 holds ``observe(state)`` after burn-in.
    Returns the final state of all rows and the members' output, shape
    (n_ensemble, n_steps + 1, *shape).
    """
    n = config.n_ensemble
    members = range(member_offset, member_offset + n)
    # numpy hands a one-row product to gemv, which rounds unlike the gemm of
    # a batch; a duplicate row, drawn from a second copy of the member's
    # stream, keeps a lone member's bits equal to its batched ones.
    if n == 1:
        members = [member_offset] * 2
    n_burn = int(round(config.burn_in / config.dt))
    state = start(len(members))
    out = np.empty((len(members), config.n_steps + 1, *shape))
    k = -n_burn  # recorded steps done
    for xi in _noise_chunks(config.seed, members, n_burn, config.n_steps):
        if k == 0:
            out[:, 0] = observe(state)
        for j in range(0, xi.shape[1], block):
            l = min(block, xi.shape[1] - j)
            state = advance(state, xi[:, j:j + l], out[:, k + 1:k + l + 1] if k >= 0 else None)
            k += l
    return state, out[:n]


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
    sqD = np.sqrt(D[:2])  # channels 2, 3 carry no noise
    P, T = _linear_block_maps(np.eye(4) - config.dt * A.T, sqD * math.sqrt(config.dt), _BLOCK)

    def advance(x, xi, dest):
        l = xi.shape[1]
        noise = xi.reshape(len(xi), 2 * l)
        if dest is None:  # burn-in needs only the last state of a block
            last = slice(4 * l - 4, 4 * l)
            return x @ P[:, last] + noise @ T[:2 * l, last]
        block = dest.reshape(len(xi), 4 * l)  # a view: dest's columns are contiguous
        np.matmul(noise, T[:2 * l, :4 * l], out=block)
        block += x @ P[:, :4 * l]
        return block[:, -4:]

    _, out = _euler_maruyama(config, lambda rows: np.zeros((rows, 4)), advance, lambda x: x,
                             shape=(4,), member_offset=member_offset, block=_BLOCK)
    return out


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
    paths : real ndarray, shape (n_paths, n_samples)
        Stationary (post burn-in) segments, one row per path; complex
        paths raise DomainError.
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
    if np.iscomplexobj(paths):
        raise DomainError("estimate_psd needs real paths: the two-sided estimate mirrors "
                          "the half-spectrum of a real signal")
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
    X = np.fft.rfft(paths * w, axis=1) * dt
    half = (np.abs(X) ** 2).mean(axis=0) / (2.0 * math.pi * dt * wpow)
    # A real signal's power at -f is its power at f: frequencies -(n//2)..-1
    # (the Nyquist bin of an even n among them) mirror bins n//2..1.
    psd = np.concatenate([half[n_samples // 2:0:-1], half[:(n_samples + 1) // 2]])
    return np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n_samples, d=dt)), psd


@dataclass(frozen=True)
class PhaseRecord:
    """Unwrapped on-cycle phases, one row per ensemble member; ``excluded`` is always 0."""

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
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the fit, not warned
            for cols, y in self._centred_blocks():
                y *= y
                var[cols] = y.sum(axis=0) / (self.phases.shape[0] - 1)
        return var


def simulate_limit_cycle_noise(params: SystemParams, delta_epsilon: float,
                               config: SDEConfig, mode: str = "reduced",
                               noise_scale: float = 1.0) -> PhaseRecord:
    """Phase noise on the limit cycle at drive epsilon_h + delta_epsilon.

    mode="reduced" integrates the normal form's phase equation
        dphi = omega_h dt + (1/A) sqrt(s'/2) dW_phi
    with s' = noise_scale * s and s = 1/kappa the on-cycle intensity, on
    the cycle's amplitude A.  It holds where the radial relaxation, at
    rate 2*d*delta_epsilon, keeps the radius at A; a dt past that
    relaxation's Euler stability limit, d*delta_epsilon*dt >= 1, raises
    NumericalError before anything is drawn.

    mode="full" integrates the 4-dim semiclassical flow with the same
    white noise injected along the center-plane directions of the
    normal-form transform, and reads the phase as atan2(u, v) through
    the inverse transform; both maps are read once per run.  Each chunk of
    noise is stepped in one call, the state held as its four component
    arrays; the wrapped atan2 of every step is recorded, and after the run
    each member's record is continued onto the nearest branch in time
    order, the same sums as unwrapping step by step.  The realized
    rotation makes this phase decrease at |omega_h| for this flow's
    orientation; only the variance growth enters the diffusion fit.  A
    member that overflows (too large a ``dt`` or ``noise_scale``) raises
    NumericalError at the end of the first chunk in which it does, so a
    run that blows up stops early.

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
        # only A and the start point are read; the warning past 0.2 epsilon_h would fire at
        # criterion 9's 0.28 epsilon_h and add a line to the CLI's one-line failures
        warnings.simplefilter("ignore")
        pred = predict_limit_cycle(kappa, gamma, delta_epsilon)
    A_amp = pred.amplitude_A
    dt = config.dt
    sq = math.sqrt(dt)
    n = config.n_ensemble
    times = np.arange(config.n_steps + 1) * dt

    if mode == "reduced":
        relaxation = radial_growth_rate(kappa, gamma) * delta_epsilon * dt
        if not relaxation < 1.0:
            raise NumericalError(
                f"the radial relaxation's Euler step is unstable at dt={dt:g}, "
                f"delta_epsilon={delta_epsilon:g} (d*delta_epsilon*dt = {relaxation:.4g} >= 1); "
                "a smaller dt keeps the radius at the cycle")

        def advance(phi, xi, dest):
            # xi[:, j, 0] is drawn and not read, so each (seed, member) keeps its path
            for j in range(xi.shape[1]):
                phi = phi + dt * om_h + (sig / A_amp) * sq * xi[:, j, 1]
                if dest is not None:
                    dest[:, j] = phi
            return phi

        # an overflowing phase reaches the fit, which refuses a non-finite variance
        with np.errstate(over="ignore", invalid="ignore"):
            _, phases = _euler_maruyama(config, np.zeros, advance, lambda phi: phi,
                                        block=_CHUNK)
        return PhaseRecord(times=times, phases=phases, excluded=0, noise_scale=noise_scale,
                           config=config)

    # full mode
    eps = hopf_threshold(kappa, gamma).epsilon_h + delta_epsilon
    run = SystemParams(kappa=kappa, gamma=gamma, epsilon=eps)
    T, ((ur, ua), (vr, va)) = normal_form_rows(kappa, gamma)
    # Row 0 of T holds the beta_r components of the (u, v) directions, row 1
    # their alpha_r components; beta_i and alpha_i take no noise.
    (bu, bv), (au, av) = T
    ss = sig * sq

    def angle(br, ar):
        return np.arctan2(ur * br + ua * ar, vr * br + va * ar)  # atan2(u, v), wrapped

    def advance(y, xi, dest):
        br, bi, ar, ai = y
        for j in range(xi.shape[1]):
            dbr, dbi, dar, dai = vector_field((br, bi, ar, ai), run)
            x0, x1 = xi[:, j, 0], xi[:, j, 1]
            br = br + dt * dbr + ss * (x0 * bu + x1 * bv)
            bi = bi + dt * dbi
            ar = ar + dt * dar + ss * (x0 * au + x1 * av)
            ai = ai + dt * dai
            if dest is not None:
                dest[:, j] = angle(br, ar)
        # An overflowed member stays non-finite, so the chunk's last state shows it.
        finite = np.isfinite(br) & np.isfinite(bi) & np.isfinite(ar) & np.isfinite(ai)
        overflowed = n - int(np.count_nonzero(finite[:n]))
        if overflowed:
            raise NumericalError(f"{overflowed} of {n} full-mode members overflowed at "
                                 f"dt={dt:g}, noise_scale={noise_scale:g}; a smaller dt or "
                                 "noise_scale keeps them near the cycle")
        return br, bi, ar, ai

    with np.errstate(over="ignore", invalid="ignore"):
        _, phases = _euler_maruyama(
            config, lambda rows: tuple(np.full(rows, c) for c in pred.orbit(0.0)[0]),
            advance, lambda y: angle(y[0], y[2]), block=_CHUNK)
    _unwrap(phases)
    phases -= phases[:, :1].copy()  # with a view of phases itself, numpy would copy all of it
    return PhaseRecord(times=times, phases=phases, excluded=0, noise_scale=noise_scale,
                       config=config)


def _unwrap(ang: np.ndarray) -> None:
    """Continue each row of wrapped angles onto the nearest branch, in place.

    Column k becomes ang[:, 0] + w_1 + ... + w_k, summed in that order, with
    w_j = (ang[:, j] - ang[:, j-1] + pi) % 2pi - pi, the bits of a loop that
    continues one step at a time.  The steps are wrapped a block of
    ``_CHUNK`` columns at a time, from the last block back, so each block
    still reads the raw angle before it and only one block is held beside
    the record.
    """
    n, m = ang.shape
    w = np.empty((n, min(_CHUNK, m)))
    for end in range(m, 1, -_CHUNK):
        start = max(1, end - _CHUNK)
        step = np.subtract(ang[:, start:end], ang[:, start - 1:end - 1], out=w[:, :end - start])
        step += math.pi
        step %= 2.0 * math.pi
        step -= math.pi
        ang[:, start:end] = step
    np.cumsum(ang, axis=1, out=ang)


@dataclass(frozen=True)
class PhaseDiffusionFit:
    """Fit of Var[phi(t)] = D_phi * t (and its rescaling to physical s)."""

    d_phi_hat: float
    stderr: float
    d_phi_hat_physical: float
    stderr_physical: float
    r_squared: float
    n_members: int


def _require_finite_fit(name: str, value: float, var: np.ndarray) -> None:
    """NumericalError unless ``value``, a statistic of the variance fit, is finite."""
    if not math.isfinite(value):
        raise NumericalError(f"the phase-variance fit's {name} is {value:g}: squares of the "
                             f"variance (up to {float(var.max()):.3g}) leave the float range")


def measure_phase_diffusion(record: PhaseRecord, n_bootstrap: int = 200) -> PhaseDiffusionFit:
    """Least-squares slope of the ensemble phase variance versus time.

    The variance at each time is taken across members (about the
    ensemble mean, which removes the common deterministic drift) and
    fitted through the origin.  The standard error comes from an
    ensemble bootstrap: the ``n_bootstrap`` (>= 2) resamples of members are
    kept as a (n_bootstrap, n) matrix W of draw counts, so each resample's
    slope follows from one matrix product and one matrix-vector product
    with the centred phases, block by block of time columns, and no
    resampled copy of the record is built.  Sub-linear or saturating growth (R^2 < 0.9) raises
    NumericalError, as does a non-finite R^2 or standard error.
    """
    if n_bootstrap < 2:
        raise DomainError(f"n_bootstrap must be >= 2 for a standard error, got {n_bootstrap}")
    n = record.phases.shape[0]
    if n < 100:
        raise DomainError(f"need >= 100 ensemble members, got {n}")
    t = record.times
    var = record.variance
    if not np.isfinite(var).all():
        raise NumericalError("the phase variance is not finite: a member's phase is NaN or "
                             "infinite, or the phases' squared spread leaves the float range")
    d_hat = float((var @ t) / (t @ t))
    # Identical (noise-free) members leave only summation dust in var.
    floor = (1e-12 * max(1.0, float(max(record.phases.max(), -record.phases.min())))) ** 2
    if float(var.max(initial=0.0)) <= floor:
        return PhaseDiffusionFit(d_phi_hat=0.0, stderr=0.0, d_phi_hat_physical=0.0,
                                 stderr_physical=0.0, r_squared=1.0, n_members=n)
    fit = d_hat * t
    with np.errstate(over="ignore"):  # squares past the float range: refused below
        ss_res = float(((var - fit) ** 2).sum())
        ss_tot = float(((var - var.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    _require_finite_fit("R^2", r2, var)
    if r2 < 0.9:
        raise NumericalError(
            f"variance growth is not linear (R^2 = {r2:.3f} < 0.9); the diffusion "
            "regime assumption is violated for this configuration"
        )

    # Resample b holds member i W[b, i] times (the same draws as indexing
    # the phase changes with them), so its sums of y and y^2 are W @ y and
    # W @ y^2, taken a block of time columns at a time.  Only the variance's
    # dot with t is read, so W @ y^2 enters as W @ (y^2 @ t), one
    # matrix-vector product.  Centring y on the full-ensemble mean keeps the
    # resampled means small, so the sum-of-squares variance loses no
    # significant digits.
    rng = member_rng(record.config.seed, _ANALYSIS_STREAM)
    W = np.empty((n_bootstrap, n))
    for b in range(n_bootstrap):
        W[b] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    boot_var_t = np.zeros(n_bootstrap)  # each resample's variance dotted with t
    with np.errstate(over="ignore", invalid="ignore"):  # as for R^2
        for cols, y in record._centred_blocks():
            mean = (W @ y) / n
            y *= y
            boot_var_t += (W @ (y @ t[cols]) - (n * mean**2) @ t[cols]) / (n - 1)
        stderr = float((boot_var_t / (t @ t)).std(ddof=1))
    _require_finite_fit("stderr", stderr, var)
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
              np.column_stack([record.times, var, np.full_like(var, n_eff)]).tolist())
