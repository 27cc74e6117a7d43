import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from selfpulse import (
    DomainError,
    NumericalError,
    SDEConfig,
    SystemParams,
    estimate_psd,
    hopf_frequency,
    hopf_threshold,
    integrate,
    linear_noise_model,
    measure_phase_diffusion,
    phase_diffusion_constant,
    predict_limit_cycle,
    simulate_limit_cycle_noise,
    simulate_linear_sde,
    spectral_peak,
    spectrum_scan,
    stationary_covariance,
    to_normal_form,
)
from selfpulse import stochastic
from selfpulse.closed_forms import normal_form_rows
from selfpulse.semiclassics import vector_field
from selfpulse.stochastic import (
    _ANALYSIS_STREAM,
    _CHUNK,
    MAX_MEMBER_STEPS,
    MAX_RECORDED,
    PhaseRecord,
    member_rng,
    phase_record_to_csv,
)

MODEL = linear_noise_model(SystemParams(kappa=1.0, gamma=0.1, epsilon=0.13))
# At (kappa, gamma) = (1, 3) and this drive, two real eigenvalues of A meet
# and turn into a complex pair, so A is defective.
EXCEPTIONAL_MODEL = linear_noise_model(SystemParams(
    kappa=1.0, gamma=3.0, epsilon=0.13988353140405302 * hopf_threshold(1.0, 3.0).epsilon_h))


def _reference_linear_sde(model, config):
    """Member-by-member Euler-Maruyama loop on the same per-member streams."""
    A = model.drift_A
    sqD = np.sqrt(np.clip(np.diag(model.diffusion_D)[:2], 0.0, None))
    n_burn = int(round(config.burn_in / config.dt))
    n_rec = config.n_steps
    dt = config.dt
    sq = math.sqrt(dt)
    out = np.empty((config.n_ensemble, n_rec + 1, 4))
    for m in range(config.n_ensemble):
        xi = member_rng(config.seed, m).standard_normal((n_burn + n_rec, 2))
        x = np.zeros(4)
        for k in range(n_burn):
            x = x + dt * (-A @ x)
            x[0] += sqD[0] * sq * xi[k, 0]
            x[1] += sqD[1] * sq * xi[k, 1]
        out[m, 0] = x
        for k in range(n_rec):
            x = x + dt * (-A @ x)
            x[0] += sqD[0] * sq * xi[n_burn + k, 0]
            x[1] += sqD[1] * sq * xi[n_burn + k, 1]
            out[m, k + 1] = x
    return out


def _reference_bootstrap(record, n_bootstrap=200):
    """Bootstrap stderr of the slope, one resampled copy of the record at a time."""
    n = record.phases.shape[0]
    t = record.times
    dphi = record.phases - record.phases[:, :1]
    rng = member_rng(record.config.seed, _ANALYSIS_STREAM)
    boots = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        var = dphi[rng.integers(0, n, size=n)].var(axis=0, ddof=1)
        boots[b] = (var @ t) / (t @ t)
    return float(boots.std(ddof=1))


def _reference_cycle_noise(params, delta_epsilon, config, mode, noise_scale):
    """Phase record of a per-step loop on whole per-member streams.

    The reduced mode steps the phase; the full mode steps a (members, 4)
    state and continues its phase onto the nearest branch after every step.
    """
    kappa, gamma = params.kappa, params.gamma
    om_h = hopf_frequency(kappa, gamma)
    sig = math.sqrt(noise_scale * (1.0 / kappa) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = predict_limit_cycle(kappa, gamma, delta_epsilon)
    A_amp = pred.amplitude_A
    dt = config.dt
    sq = math.sqrt(dt)
    n, n_steps = config.n_ensemble, config.n_steps
    n_burn = int(round(config.burn_in / dt))
    noise = np.stack([member_rng(config.seed, m).standard_normal((n_burn + n_steps, 2))
                      for m in range(n)])

    if mode == "reduced":
        def step(phi, xi):
            return phi + dt * om_h + (sig / A_amp) * sq * xi[:, 1]

        state, observe = np.zeros(n), lambda phi: phi
    else:
        eps = hopf_threshold(kappa, gamma).epsilon_h + delta_epsilon
        run = SystemParams(kappa=kappa, gamma=gamma, epsilon=eps)
        T, ((ur, ua), (vr, va)) = normal_form_rows(kappa, gamma)
        dir_u = np.array([T[0][0], 0.0, T[1][0], 0.0])
        dir_v = np.array([T[0][1], 0.0, T[1][1], 0.0])
        phi = prev = None

        def observe(y):
            nonlocal phi, prev
            ang = np.arctan2(ur * y[:, 0] + ua * y[:, 2], vr * y[:, 0] + va * y[:, 2])
            phi = ang if phi is None else phi + ((ang - prev + math.pi) % (2.0 * math.pi)
                                                 - math.pi)
            prev = ang
            return phi

        def step(y, xi):
            return y + dt * vector_field(y, run) + sig * sq * (np.outer(xi[:, 0], dir_u)
                                                               + np.outer(xi[:, 1], dir_v))

        state = np.tile(pred.orbit(0.0)[0], (n, 1))
    for k in range(n_burn):
        state = step(state, noise[:, k])
    out = np.empty((n, n_steps + 1))
    out[:, 0] = observe(state)
    for k in range(n_steps):
        state = step(state, noise[:, n_burn + k])
        out[:, k + 1] = observe(state)
    if mode == "full":
        out -= out[:, :1].copy()
    return out


def _whole_stream_chunks(seed, members, n_burn, n_steps):
    """Stand-in for ``_noise_chunks``: each member's stream in one standard_normal call."""
    xi = np.stack([member_rng(seed, m).standard_normal((n_burn + n_steps, 2)) for m in members])
    if n_burn:
        yield xi[:, :n_burn]
    yield xi[:, n_burn:]


class TestStreams:
    def test_member_streams_deterministic_and_distinct(self):
        a = member_rng(42, 7).standard_normal(5)
        b = member_rng(42, 7).standard_normal(5)
        c = member_rng(42, 8).standard_normal(5)
        d = member_rng(43, 7).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    # Burn-in (1100 steps) and recording (1300 steps) each span two chunks,
    # and their sum is not a whole number of chunks.
    @pytest.mark.parametrize("run", [
        lambda cfg: simulate_linear_sde(MODEL, cfg),
        lambda cfg: simulate_linear_sde(MODEL, dataclasses.replace(cfg, n_ensemble=1),
                                        member_offset=2),
        lambda cfg: simulate_limit_cycle_noise(_P0, 0.05, cfg).phases,
        lambda cfg: simulate_limit_cycle_noise(_P0, 0.05, cfg, mode="full",
                                               noise_scale=1e-3).phases,
    ], ids=["linear", "linear-one-member", "reduced", "full"])
    def test_chunked_noise_matches_whole_draw(self, run, monkeypatch):
        cfg = SDEConfig(dt=0.02, n_steps=1300, n_ensemble=6, seed=4, burn_in=22.0)
        assert 1100 > _CHUNK and 1300 > _CHUNK and 2400 % _CHUNK
        chunked = run(cfg)
        monkeypatch.setattr(stochastic, "_noise_chunks", _whole_stream_chunks)
        assert np.array_equal(chunked, run(cfg))

    def test_run_size_limits(self):
        n = MAX_RECORDED // 20
        burn = float(MAX_MEMBER_STEPS // n - 19)
        SDEConfig(dt=1.0, n_steps=19, n_ensemble=n, burn_in=burn)  # at or below both limits
        for oversized in (dict(n_steps=20, burn_in=burn - 1.0),  # one recorded sample too many
                          dict(n_steps=19, burn_in=burn + 0.5),  # half a step too many
                          dict(n_steps=19, burn_in=1e308, dt=1e-10)):  # burn_in / dt = inf
            with pytest.raises(DomainError, match="n_ensemble=.*n_steps=.*burn_in="):
                SDEConfig(**{"dt": 1.0, "n_ensemble": n, **oversized})


class TestSimulateLinearSde:
    def test_deterministic_given_seed(self):
        cfg = SDEConfig(dt=0.02, n_steps=50, n_ensemble=4, seed=9)
        assert np.array_equal(simulate_linear_sde(MODEL, cfg), simulate_linear_sde(MODEL, cfg))

    # The chain is evaluated in blocks of _BLOCK steps: cover a burn-in that is
    # not a whole number of blocks, none at all, and a run shorter than a block.
    @pytest.mark.parametrize("n_steps, burn_in", [(80, 0.5), (80, 0.0), (10, 0.3), (200, 1.5)],
                             ids=["default", "no-burn-in", "under-one-block", "burn-in-75-steps"])
    def test_batched_matches_sequential(self, n_steps, burn_in):
        cfg = SDEConfig(dt=0.02, n_steps=n_steps, n_ensemble=6, seed=3, burn_in=burn_in)
        a = _reference_linear_sde(MODEL, cfg)
        b = simulate_linear_sde(MODEL, cfg)
        assert np.allclose(a, b, atol=1e-13)

    @pytest.mark.parametrize("cfg, n_all, offset", [
        (SDEConfig(dt=0.02, n_steps=40, n_ensemble=2, seed=5), 4, 2),
        (SDEConfig(dt=0.03, n_steps=3000, n_ensemble=1, seed=5, burn_in=45.0), 25, 3),
    ], ids=["two-members", "one-member"])
    def test_batching_does_not_change_member_paths(self, cfg, n_all, offset):
        full = simulate_linear_sde(MODEL, dataclasses.replace(cfg, n_ensemble=n_all))
        part = simulate_linear_sde(MODEL, cfg, member_offset=offset)
        assert np.array_equal(full[offset:offset + cfg.n_ensemble], part)

    def test_zero_diffusion_stays_at_origin(self):
        quiet = linear_noise_model(SystemParams(kappa=1.0, gamma=0.2, epsilon=0.0))
        cfg = SDEConfig(dt=0.02, n_steps=100, n_ensemble=3, seed=1)
        paths = simulate_linear_sde(quiet, cfg)
        assert np.all(paths == 0.0)

    def test_stability_guard(self):
        with pytest.raises(DomainError, match="stability guard"):
            simulate_linear_sde(MODEL, SDEConfig(dt=0.5, n_steps=10, n_ensemble=2, seed=0))

    @pytest.mark.parametrize("model", [MODEL, EXCEPTIONAL_MODEL],
                             ids=["criterion-8", "exceptional-point"])
    def test_stationary_covariance_matches_bartels_stewart(self, model):
        from scipy.linalg import solve_continuous_lyapunov

        ref = solve_continuous_lyapunov(model.drift_A, model.diffusion_D)
        S = stationary_covariance(model)
        assert np.linalg.norm(S - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_exceptional_point_is_defective(self):
        eigenvectors = np.linalg.eig(EXCEPTIONAL_MODEL.drift_A)[1]
        assert np.linalg.cond(eigenvectors) > 1e6

    def test_stationary_covariance_matches_lyapunov(self):
        cfg = SDEConfig(dt=0.03, n_steps=4000, n_ensemble=400, seed=11, burn_in=40.0)
        paths = simulate_linear_sde(MODEL, cfg)
        samples = paths[:, ::40, :].reshape(-1, 4)
        emp = samples.T @ samples / len(samples)
        ref = stationary_covariance(MODEL)
        rel = np.linalg.norm(emp - ref) / np.linalg.norm(ref)
        assert rel < 0.10


class TestEstimatePsd:
    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(0)
        dt, sigma = 0.05, 1.3
        x = sigma * rng.standard_normal((400, 1024))
        om, psd = estimate_psd(x, dt)
        expected = sigma**2 * dt / (2.0 * math.pi)
        assert np.mean(psd) == pytest.approx(expected, rel=0.02)
        assert np.std(psd) / np.mean(psd) < 0.1

    def test_ou_lorentzian_half_width(self):
        lam, sigma, dt = 0.5, 0.8, 0.02
        rng = np.random.default_rng(123)
        n_paths, n_burn, n_rec = 600, 2000, 8192
        x = np.zeros(n_paths)
        sq = math.sqrt(dt)
        for _ in range(n_burn):
            x = x - dt * lam * x + sigma * sq * rng.standard_normal(n_paths)
        rec = np.empty((n_paths, n_rec))
        for k in range(n_rec):
            x = x - dt * lam * x + sigma * sq * rng.standard_normal(n_paths)
            rec[:, k] = x
        om, psd = estimate_psd(rec, dt)
        peak = psd.max()
        above = psd >= peak / 2.0
        half_width = 0.5 * (om[above].max() - om[above].min())
        assert half_width == pytest.approx(lam, rel=0.05)

    # fftfreq has no bin at +Nyquist, so an even count puts its Nyquist bin first.
    @pytest.mark.parametrize("n_samples", [1024, 1025])
    def test_matches_two_sided_fft(self, n_samples):
        dt = 0.05
        paths = np.random.default_rng(n_samples).standard_normal((25, n_samples))
        om, psd = estimate_psd(paths, dt)
        w = np.hanning(n_samples)
        X = np.fft.fft(paths * w, axis=1) * dt
        ref = (np.abs(X) ** 2).mean(axis=0) / (2.0 * math.pi * dt * float((w**2).sum()))
        omega = 2.0 * math.pi * np.fft.fftfreq(n_samples, d=dt)
        order = np.argsort(omega)
        assert np.array_equal(om, omega[order])
        # White paths have a flat spectrum, so every bin sits far above the
        # transforms' rounding, which scales with the signal's norm.
        np.testing.assert_allclose(psd, ref[order], rtol=1e-13, atol=0.0)

    def test_complex_paths_refused(self):
        with pytest.raises(DomainError, match="real paths") as err:
            estimate_psd(np.ones((3, 64)) * (1.0 + 1.0j), 0.05)
        assert len(str(err.value).splitlines()) == 1

    def test_segment_length_precondition(self):
        with pytest.raises(DomainError, match="16 periods"):
            estimate_psd(np.zeros((3, 100)), 0.01, omega_ref=1.0)

    def test_cross_module_peak_location(self):
        om_h = hopf_frequency(1.0, 0.1)
        dt = 0.03
        n_steps = int(math.ceil(16.2 * 2.0 * math.pi / om_h / dt))
        cfg = SDEConfig(dt=dt, n_steps=n_steps, n_ensemble=800, seed=21, burn_in=45.0)
        paths = simulate_linear_sde(MODEL, cfg)
        om, psd = estimate_psd(paths[:, 1:, 2], dt, omega_ref=om_h)
        emp_peak = om[(om > 0.1)][np.argmax(psd[om > 0.1])]
        res = spectrum_scan(MODEL, 0.01, 1.5, 1500)
        ana_peak = spectral_peak(res, 2, 2).omega_peak
        bin_width = om[1] - om[0]
        assert abs(emp_peak - ana_peak) <= bin_width


_PINNED_CFG = SDEConfig(dt=0.02, n_steps=60, n_ensemble=5, seed=7, burn_in=0.4)
_P0 = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)


def _pinned_cycle(mode, deps=0.05, n_ensemble=6, seed=42, burn_in=0.5, **kwargs):
    cfg = SDEConfig(dt=0.02, n_steps=100, n_ensemble=n_ensemble, seed=seed, burn_in=burn_in)
    return simulate_limit_cycle_noise(_P0, deps, cfg, mode=mode, **kwargs)


# sha256 of the result array's bytes.  The digests pin the Euler-Maruyama
# paths bit for bit on this float64 x86-64 numpy/OpenBLAS build; another
# BLAS or CPU may legitimately round differently.
@pytest.mark.parametrize("run, digest, excluded", [
    (lambda: simulate_linear_sde(MODEL, _PINNED_CFG),
     "3f02493cffe9454f0eefe71dc5d92c2ae8560d991e6c9ba957b0cfcd3ad6c8e4", None),
    (lambda: simulate_linear_sde(MODEL, _PINNED_CFG, member_offset=2),
     "4ccb6fad88996a5dc5718353e66a43b6cae40789a07b05e41db0099ed5bda449", None),
    (lambda: _pinned_cycle("reduced"),
     "1fefe0b496bdadf01c73e1be73e8ad86fdd410b464a1f6bc3e93d6b8dcd1d2b5", 0),
    (lambda: _pinned_cycle("reduced", burn_in=0.0),
     "69998aba571bc3c24176a799cfec0de86202cb7d2b14a640bbd5251a8cea0fd4", 0),
    (lambda: _pinned_cycle("full", noise_scale=1e-3),
     "36ada7287092add69890448a4e042fe1f2bef7a0f5cd5862aaa40bac68bf8314", 0),
], ids=["linear", "linear-offset", "reduced", "reduced-no-burn-in", "full"])
def test_pinned_ensemble_digest(run, digest, excluded):
    out = run()
    if excluded is not None:
        assert out.excluded == excluded
        out = out.phases
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == digest


# n_steps = 1100 spans a chunk boundary, as do 1100 burn-in steps.
@pytest.mark.parametrize("mode, noise_scale", [("reduced", 1.0), ("full", 1e-2)])
@pytest.mark.parametrize("n_ensemble", [1, 7])
@pytest.mark.parametrize("burn_in", [0.0, 22.0])
def test_cycle_noise_matches_per_step_loop(mode, noise_scale, n_ensemble, burn_in):
    cfg = SDEConfig(dt=0.02, n_steps=1100, n_ensemble=n_ensemble, seed=11, burn_in=burn_in)
    assert cfg.n_steps > _CHUNK
    p = SystemParams(kappa=1.0, gamma=0.05, epsilon=0.0)
    rec = simulate_limit_cycle_noise(p, 0.05, cfg, mode=mode, noise_scale=noise_scale)
    assert np.array_equal(rec.phases, _reference_cycle_noise(p, 0.05, cfg, mode, noise_scale))


def test_full_mode_overflow_refused_after_first_chunk(monkeypatch):
    drawn = []
    chunks = stochastic._noise_chunks

    def counted(*args):
        for xi in chunks(*args):
            drawn.append(xi.shape[1])
            yield xi

    monkeypatch.setattr(stochastic, "_noise_chunks", counted)
    cfg = SDEConfig(dt=0.02, n_steps=4000, n_ensemble=100, seed=1, burn_in=10.0)
    with pytest.raises(NumericalError, match="overflowed at dt=0.02, noise_scale=0;"):
        simulate_limit_cycle_noise(_P0, 5.0, cfg, mode="full", noise_scale=0.0)
    assert drawn == [500]  # the burn-in chunk alone, of five


# t = tau/kappa and (beta, alpha) = kappa (beta', alpha') map the flow at
# (kappa, gamma, epsilon) onto (1, gamma/kappa, epsilon/kappa^2), and the SDE
# at (dt, noise_scale) onto (kappa dt, noise_scale/kappa^2); phases are unchanged.
@pytest.mark.parametrize("kappa", [2.0, 0.5])
@pytest.mark.parametrize("mode, noise_scale, phase_tol", [("reduced", 1.0, 0.0),
                                                          ("full", 1e-3, 1e-11)])
def test_kappa_rescaling(kappa, mode, noise_scale, phase_tol):
    def run(k, scale):
        cfg = SDEConfig(dt=0.01 / k, n_steps=2000, n_ensemble=100, seed=3, burn_in=0.1 / k)
        deps = 0.1 * hopf_threshold(k, 0.05 * k).epsilon_h
        return simulate_limit_cycle_noise(SystemParams(kappa=k, gamma=0.05 * k, epsilon=0.0),
                                          deps, cfg, mode=mode, noise_scale=scale)

    rec, unit = run(kappa, noise_scale * kappa**2), run(1.0, noise_scale)
    if phase_tol:
        assert np.max(np.abs(rec.phases - unit.phases)) <= phase_tol
    else:
        assert np.array_equal(rec.phases, unit.phases)
    assert measure_phase_diffusion(rec).d_phi_hat == pytest.approx(
        kappa * measure_phase_diffusion(unit).d_phi_hat, rel=1e-12, abs=0.0)


def cycle_config(dt=0.02, t_final=60.0, n_ensemble=300, seed=42, burn_in=0.0):
    return SDEConfig(dt=dt, n_steps=int(round(t_final / dt)), n_ensemble=n_ensemble,
                     seed=seed, burn_in=burn_in)


class TestLimitCycleNoise:
    def test_zero_noise_reduced(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        rec = simulate_limit_cycle_noise(p, 0.05, cycle_config(n_ensemble=100),
                                         mode="reduced", noise_scale=0.0)
        om_h = hopf_frequency(1.0, 0.0)
        rates = (rec.phases[:, -1] - rec.phases[:, 0]) / rec.times[-1]
        assert np.allclose(rates, om_h, rtol=1e-12)
        assert np.allclose(rec.phases.var(axis=0), 0.0)
        fit = measure_phase_diffusion(rec)
        assert fit.d_phi_hat == 0.0

    def test_zero_noise_full_rotates_at_omega_h(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        deps = 0.01 * hopf_threshold(1.0, 0.0).epsilon_h
        rec = simulate_limit_cycle_noise(p, deps, cycle_config(dt=0.01, t_final=80.0,
                                                               n_ensemble=100),
                                         mode="full", noise_scale=0.0)
        om_h = hopf_frequency(1.0, 0.0)
        rates = (rec.phases[:, -1] - rec.phases[:, 0]) / rec.times[-1]
        # orientation of the realized flow makes atan2(u, v) decrease
        assert np.allclose(np.abs(rates), om_h, rtol=0.02)
        assert np.max(rec.phases.var(axis=0)) <= 1e-20

    def test_reduced_mode_matches_analytic(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        rec = simulate_limit_cycle_noise(p, 0.05, cycle_config(n_ensemble=400),
                                         mode="reduced")
        fit = measure_phase_diffusion(rec)
        ref = phase_diffusion_constant(1.0, 0.05).value
        assert fit.d_phi_hat == pytest.approx(ref, rel=0.15)
        assert fit.r_squared > 0.95

    def test_full_mode_small_noise(self):
        kappa, gamma, deps = 1.0, 0.0, 0.05
        p = SystemParams(kappa=kappa, gamma=gamma, epsilon=0.0)
        scale = 1e-3
        rec = simulate_limit_cycle_noise(p, deps, cycle_config(t_final=120.0,
                                                               n_ensemble=400,
                                                               burn_in=10.0),
                                         mode="full", noise_scale=scale)
        fit = measure_phase_diffusion(rec)
        asymptotic = phase_diffusion_constant(kappa, deps).value

        # corrected prediction from the settled deterministic cycle: the
        # tangential noise yields Var rate (s'/2) <1/r^2> along the orbit
        hp = hopf_threshold(kappa, gamma)
        with pytest.warns(UserWarning, match="0.2"):
            pred = predict_limit_cycle(kappa, gamma, deps)
        run = SystemParams(kappa=kappa, gamma=gamma, epsilon=hp.epsilon_h + deps)
        T = 2.0 * math.pi / pred.omega_h
        traj = integrate(pred.orbit(0.0)[0], run, (0.0, 60.0 * T), n_samples=3600)
        sel = traj.times >= 0.5 * traj.times[-1]
        u, v = to_normal_form(kappa, gamma, traj.y[sel, 0], traj.y[sel, 2])
        s = 1.0 / kappa  # the on-cycle noise intensity
        corrected = (s * scale / 2.0) * float(np.mean(1.0 / (u**2 + v**2))) / scale

        # the realized diffusion exceeds both (amplitude-phase shear adds a
        # genuine finite-delta_eps enhancement); both stay loose envelopes
        assert fit.d_phi_hat_physical == pytest.approx(corrected, rel=0.3)
        assert fit.d_phi_hat_physical == pytest.approx(asymptotic, rel=0.45)

    def test_full_mode_converges_to_asymptotic_near_threshold(self):
        # with this 10-unit burn-in and 120-unit window the measured diffusion
        # sits closer to the asymptotic constant at delta_eps = 0.02 than at 0.1;
        # the window is shorter than the radial relaxation near threshold.  The
        # phase-response curve (ROADMAP item 5) shows the true finite-delta_eps
        # enhancement does not shrink toward threshold: 1.282 at 0.02 against
        # 1.137 at 0.1, with the limit 1 + (b/a)^2 = 170/121
        kappa, gamma = 1.0, 0.0
        p = SystemParams(kappa=kappa, gamma=gamma, epsilon=0.0)
        devs = []
        for deps, scale in ((0.02, 2e-4), (0.1, 2e-3)):
            rec = simulate_limit_cycle_noise(
                p, deps, cycle_config(t_final=120.0, n_ensemble=400, burn_in=10.0),
                mode="full", noise_scale=scale)
            fit = measure_phase_diffusion(rec)
            ref = phase_diffusion_constant(kappa, deps).value
            devs.append(abs(fit.d_phi_hat_physical / ref - 1.0))
        assert devs[0] < devs[1]

    def test_doubling_delta_eps_halves_diffusion(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        fits = []
        for deps in (0.025, 0.05):
            rec = simulate_limit_cycle_noise(p, deps, cycle_config(n_ensemble=300),
                                             mode="reduced")
            fits.append(measure_phase_diffusion(rec))
        ratio = fits[0].d_phi_hat / fits[1].d_phi_hat
        err = ratio * (fits[0].stderr / fits[0].d_phi_hat + fits[1].stderr / fits[1].d_phi_hat)
        assert abs(ratio - 2.0) <= 3.0 * err + 0.05

    def test_weak_convergence_under_dt_halving(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        fits = []
        for dt in (0.02, 0.01):
            rec = simulate_limit_cycle_noise(p, 0.05, cycle_config(dt=dt, n_ensemble=300),
                                             mode="reduced")
            fits.append(measure_phase_diffusion(rec))
        assert abs(fits[0].d_phi_hat - fits[1].d_phi_hat) <= 2.0 * (fits[0].stderr
                                                                    + fits[1].stderr)

    def test_sampling_rate_guard(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        with pytest.raises(DomainError, match="samples per period"):
            simulate_limit_cycle_noise(p, 0.05, cycle_config(dt=2.0), mode="reduced")

    def test_validation(self):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        with pytest.raises(DomainError):
            simulate_limit_cycle_noise(p, -0.1, cycle_config())
        with pytest.raises(DomainError):
            simulate_limit_cycle_noise(p, 0.05, cycle_config(), mode="other")
        for field in ("dt", "burn_in"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    SDEConfig(**{"dt": 0.02, "n_steps": 10, "n_ensemble": 2, field: bad})

    def test_gamma_warning(self):
        p = SystemParams(kappa=1.0, gamma=0.5, epsilon=0.0)
        with pytest.warns(UserWarning, match="kappa >> gamma"):
            simulate_limit_cycle_noise(p, 0.05, cycle_config(n_ensemble=100),
                                       mode="reduced", noise_scale=0.0)


def synthetic_record(phases, times, noise_scale=1.0, seed=0):
    return PhaseRecord(
        times=times, phases=phases, excluded=0, noise_scale=noise_scale,
        config=SDEConfig(dt=float(times[1] - times[0]), n_steps=len(times) - 1,
                         n_ensemble=len(phases), seed=seed),
    )


class TestMeasurePhaseDiffusion:
    def test_recovers_known_wiener_constant(self):
        rng = np.random.default_rng(5)
        D_true, dt, n, m = 0.7, 0.05, 400, 800
        steps = rng.standard_normal((n, m)) * math.sqrt(D_true * dt)
        phases = np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)
        times = np.arange(m + 1) * dt
        fit = measure_phase_diffusion(synthetic_record(phases, times))
        assert abs(fit.d_phi_hat - D_true) <= 2.0 * fit.stderr

    def test_requires_enough_members(self):
        times = np.arange(11) * 0.1
        with pytest.raises(DomainError, match="100"):
            measure_phase_diffusion(synthetic_record(np.zeros((20, 11)), times))

    def test_nonlinear_growth_rejected(self):
        rng = np.random.default_rng(8)
        times = np.arange(501) * 0.1
        # saturating spread: variance approaches a constant, nothing like D*t
        xi = rng.standard_normal((300, 1))
        phases = (1.0 - np.exp(-times / 2.0))[None, :] * xi
        with pytest.raises(NumericalError, match="not linear"):
            measure_phase_diffusion(synthetic_record(phases, times))

    def test_non_finite_variance_rejected(self):
        # an overflowed member's phase is NaN; a NaN ss_tot once read as R^2 = 1
        rng = np.random.default_rng(9)
        times = np.arange(201) * 0.1
        phases = np.cumsum(rng.standard_normal((150, 201)), axis=1)
        phases[17, 120] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            measure_phase_diffusion(synthetic_record(phases, times))

    def test_rejected_record_draws_no_bootstrap(self, monkeypatch):
        def no_draws(seed, member):
            raise AssertionError("bootstrap drawn for a rejected record")

        monkeypatch.setattr("selfpulse.stochastic.member_rng", no_draws)
        times = np.arange(501) * 0.1
        xi = np.random.default_rng(8).standard_normal((300, 1))
        phases = (1.0 - np.exp(-times / 2.0))[None, :] * xi
        with pytest.raises(NumericalError, match="not linear"):
            measure_phase_diffusion(synthetic_record(phases, times))

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_too_few_resamples_refused(self, n_bootstrap, monkeypatch):
        def no_draws(seed, member):
            raise AssertionError("bootstrap drawn for a refused n_bootstrap")

        monkeypatch.setattr("selfpulse.stochastic.member_rng", no_draws)
        times = np.arange(101) * 0.1
        phases = np.random.default_rng(2).standard_normal((200, 1)) * np.sqrt(times)
        with pytest.raises(DomainError, match="n_bootstrap"):
            measure_phase_diffusion(synthetic_record(phases, times), n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("mode, noise_scale, burn_in", [
        ("reduced", 1.0, 0.0), ("full", 1e-3, 2.0)])
    def test_bootstrap_matches_per_resample_loop(self, mode, noise_scale, burn_in):
        p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
        rec = simulate_limit_cycle_noise(p, 0.05, cycle_config(t_final=20.0, n_ensemble=150,
                                                              seed=5, burn_in=burn_in),
                                         mode=mode, noise_scale=noise_scale)
        fit = measure_phase_diffusion(rec)
        assert fit.stderr > 0.0
        assert fit.stderr == pytest.approx(_reference_bootstrap(rec), rel=1e-12)

    def test_physical_rescaling(self):
        rng = np.random.default_rng(13)
        D_sim, dt, n, m = 0.02, 0.05, 300, 600
        steps = rng.standard_normal((n, m)) * math.sqrt(D_sim * dt)
        phases = np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)
        times = np.arange(m + 1) * dt
        fit = measure_phase_diffusion(synthetic_record(phases, times, noise_scale=0.01))
        assert fit.d_phi_hat_physical == pytest.approx(fit.d_phi_hat / 0.01, rel=1e-12)


@pytest.mark.parametrize("mode, noise_scale, burn_in", [
    ("reduced", 1.0, 0.0), ("full", 1e-3, 2.0)])
def test_variance_csv_holds_the_record_variance(mode, noise_scale, burn_in, tmp_path):
    p = SystemParams(kappa=1.0, gamma=0.0, epsilon=0.0)
    rec = simulate_limit_cycle_noise(p, 0.05, cycle_config(t_final=20.0, n_ensemble=150,
                                                          seed=5, burn_in=burn_in),
                                     mode=mode, noise_scale=noise_scale)
    measure_phase_diffusion(rec)  # as the command does: the fit first, then the writer
    phase_record_to_csv(rec, tmp_path / "phase_variance.csv")
    table = np.loadtxt(tmp_path / "phase_variance.csv", delimiter=",", skiprows=1)
    # %.17g reads back to the same doubles, so the columns compare bit for bit
    assert np.array_equal(table[:, 0], rec.times)
    assert np.array_equal(table[:, 1], np.var(rec.phases - rec.phases[:, :1], axis=0, ddof=1))
    assert np.all(table[:, 2] == 150)


@pytest.mark.parametrize("mode, noise_scale, burn_in", [
    ("reduced", 1.0, 0.0), ("full", 1e-3, 2.0)])
def test_traced_peak_stays_near_the_record(mode, noise_scale, burn_in, tmp_path):
    # Noise is drawn by chunks and the fit sums by blocks of columns, so the
    # peak is the record plus a chunk, not several whole-record arrays.
    cfg = cycle_config(n_ensemble=400, seed=5, burn_in=burn_in)
    tracemalloc.start()
    try:
        rec = simulate_limit_cycle_noise(_P0, 0.05, cfg, mode=mode, noise_scale=noise_scale)
        measure_phase_diffusion(rec)
        phase_record_to_csv(rec, tmp_path / "phase_variance.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rec.phases.nbytes
