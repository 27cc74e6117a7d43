import dataclasses
import math

import numpy as np
import pytest

from selfpulse import (
    DomainError,
    NumericalError,
    SystemParams,
    ThresholdError,
    fixed_point,
    hopf_frequency,
    hopf_threshold,
    jacobian,
    linear_noise_model,
    phase_diffusion_constant,
    spectral_peak,
    spectrum,
    spectrum_scan,
)
from selfpulse.noise import spectrum_to_csv
from contextlib import nullcontext as _nullcontext

EPS_H = hopf_threshold(1.0, 0.1).epsilon_h


def model_at(epsilon, kappa=1.0, gamma=0.1):
    return linear_noise_model(SystemParams(kappa=kappa, gamma=gamma, epsilon=epsilon))


class TestLinearNoiseModel:
    def test_empty_cavity(self):
        m = model_at(0.0, kappa=1.0, gamma=0.2)
        assert np.allclose(m.drift_A, np.diag([0.1, 0.1, 0.5, 0.5]))
        assert np.allclose(m.diffusion_D, 0.0)

    def test_reference_diffusion(self):
        m = model_at(0.13)
        expected = -2.0 * m.fixed_point.alpha_i0
        diag = np.diag(m.diffusion_D)
        assert np.allclose(diag[:2], expected)
        assert diag[2] == diag[3] == 0.0
        assert expected == pytest.approx(0.374731, abs=1e-6)

    def test_matrices_real_and_psd(self):
        for eps in (0.01, 0.1, 0.2):
            m = model_at(eps)
            assert m.drift_A.dtype.kind == "f"
            assert np.min(np.diag(m.diffusion_D)) >= 0.0

    def test_spectrum_matches_real_jacobian(self):
        # eig(-A) equals the semiclassical linearization spectrum
        p = SystemParams(kappa=1.0, gamma=0.1, epsilon=0.13)
        m = linear_noise_model(p)
        ev_model = np.sort_complex(np.linalg.eigvals(-m.drift_A))
        ev_real = np.sort_complex(np.linalg.eigvals(jacobian(fixed_point(p), p)))
        assert np.allclose(ev_model, ev_real, atol=1e-10)

    def test_conjugate_pair_permutation_symmetry(self):
        # swapping (d_beta, d_beta_dag) and (d_alpha, d_alpha_dag) leaves the
        # model invariant, so the paired components agree in distribution
        P = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        for eps in (0.05, 0.13, 0.2):
            m = model_at(eps)
            assert np.allclose(P @ m.drift_A @ P, m.drift_A, atol=1e-14)
            assert np.allclose(P @ m.diffusion_D @ P, m.diffusion_D, atol=1e-14)

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdError, match="0.222486"):
            model_at(EPS_H)
        with pytest.raises(ThresholdError):
            model_at(0.3)

    def test_warns_close_to_threshold(self):
        with pytest.warns(UserWarning, match="1%"):
            model_at(0.999 * EPS_H)

    def test_stable_on_epsilon_grid(self):
        for eps in np.linspace(0.0, 0.99 * EPS_H, 15):
            m = model_at(eps)
            assert np.min(np.linalg.eigvals(m.drift_A).real) > 0.0


class TestSpectrum:
    def test_zero_diffusion_gives_zero(self):
        m = model_at(0.0)
        assert np.allclose(spectrum(m, 0.7), 0.0)

    def test_rolloff_far_from_resonance(self):
        m = model_at(0.13)
        peak = np.abs(spectrum(m, 0.45))
        far = np.abs(spectrum(m, 100.0))
        assert np.max(far) <= 1e-3 * np.max(peak)

    def test_rolloff_exponent(self):
        m = model_at(0.13)
        oms = np.geomspace(10.0, 100.0, 12)
        vals = [abs(spectrum(m, om)[2, 2]) for om in oms]
        slope = np.polyfit(np.log(oms), np.log(vals), 1)[0]
        assert slope <= -1.9

    def test_peak_near_hopf_frequency(self):
        m = model_at(0.13)
        res = spectrum_scan(m, 0.005, 1.5, 1500)
        pk = spectral_peak(res, 2, 2)
        om_h = hopf_frequency(1.0, 0.1)
        assert 0.5 * om_h < pk.omega_peak < 1.05 * om_h

    def test_peak_converges_to_omega_h(self):
        with pytest.warns(UserWarning, match="1%"):
            m = model_at(0.995 * EPS_H)
        res = spectrum_scan(m, 0.005, 1.2, 4000)
        pk = spectral_peak(res, 2, 2)
        assert pk.omega_peak == pytest.approx(0.547723, rel=0.02)


class TestSpectrumScan:
    def test_finite_on_reference_grid(self):
        for eps in (0.01, 0.05, 0.13):
            res = spectrum_scan(model_at(eps), -2.0, 2.0, 2001)
            assert np.all(np.isfinite(res.S))

    def test_reflection_symmetry(self):
        res = spectrum_scan(model_at(0.13), -1.5, 1.5, 301)
        S = res.S
        # S(-w) = S(w)^T = conj(S(w)) for the real A, D built here
        for k in range(301):
            assert np.allclose(S[k], S[300 - k].T, atol=1e-12)
            assert np.allclose(S[k], np.conj(S[300 - k]), atol=1e-12)

    def test_peak_height_increases_toward_threshold(self):
        heights = []
        for eps in (0.01, 0.05, 0.13):
            res = spectrum_scan(model_at(eps), -2.0, 2.0, 2001)
            heights.append(np.max(np.abs(res.S[:, 2, 2])))
        assert heights[0] < heights[1] < heights[2]

    @pytest.mark.parametrize("eps", [0.01, 0.13])
    def test_batched_scan_matches_pointwise_calls(self, eps):
        m = model_at(eps)
        res = spectrum_scan(m, -2.0, 2.0, 2001)
        assert np.array_equal(res.S, np.stack([spectrum(m, om) for om in res.omega_grid]))

    @pytest.mark.parametrize("n_points", [4, 5])
    def test_batched_scan_under_numpy1_solve_rule(self, monkeypatch, n_points):
        # numpy < 2.0 reads b as a stack of vectors whenever b.ndim == a.ndim - 1;
        # the scan must not depend on the newer rule (b.ndim == 1).
        solve = np.linalg.solve

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return solve(a, b[..., None])[..., 0] if b.ndim == a.ndim - 1 else solve(a, b)

        m = model_at(0.13)
        expected = spectrum_scan(m, -1.0, 1.0, n_points).S
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        assert np.array_equal(spectrum_scan(m, -1.0, 1.0, n_points).S, expected)

    def test_singular_point_is_named(self):
        # A with a zero eigenvalue makes i*omega*I + A singular at omega = 0 only.
        m = dataclasses.replace(model_at(0.13), drift_A=np.diag([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(NumericalError) as info:
            spectrum_scan(m, -1.0, 1.0, 5)
        assert str(info.value) == "singular spectrum solve at omega=0.0"

    def test_grid_validation(self):
        m = model_at(0.13)
        with pytest.raises(DomainError):
            spectrum_scan(m, -1.0, 1.0, 1)
        with pytest.raises(DomainError):
            spectrum_scan(m, 1.0, -1.0, 100)


class TestSpectralPeak:
    def test_boundary_maximum_is_an_error(self):
        # far below threshold the soft pair is overdamped: |S33| peaks at
        # omega -> 0, which sits on the boundary of the positive half-grid
        res = spectrum_scan(model_at(0.01), -2.0, 2.0, 2001)
        with pytest.raises(DomainError, match="wider"):
            spectral_peak(res, 2, 2)

    def test_half_crossing_missing_far_below_threshold(self):
        # at eps = 0.05 the low-frequency plateau of |S33| sits above half
        # of the (shallow) interior peak: no left half-height crossing
        res = spectrum_scan(model_at(0.05), 0.002, 1.6, 4000)
        with pytest.raises(DomainError, match="half-height"):
            spectral_peak(res, 2, 2)

    def test_fwhm_narrows_toward_threshold(self):
        widths = []
        for eps in (0.13, 0.995 * EPS_H):
            with pytest.warns() if eps > 0.2 else _nullcontext():
                res = spectrum_scan(model_at(eps), 0.002, 1.6, 4000)
            widths.append(spectral_peak(res, 2, 2).fwhm)
        assert widths[0] > widths[1]

    def test_parabolic_refinement_beats_grid(self):
        m = model_at(0.13)
        coarse = spectrum_scan(m, 0.01, 1.0, 200)
        fine = spectrum_scan(m, 0.01, 1.0, 20000)
        pk_c = spectral_peak(coarse, 2, 2)
        i = np.argmax(np.abs(fine.S[:, 2, 2]))
        om_true = fine.omega_grid[i]
        grid_step = coarse.omega_grid[1] - coarse.omega_grid[0]
        assert abs(pk_c.omega_peak - om_true) < 0.2 * grid_step


class TestPhaseDiffusionConstant:
    def test_reference_value(self):
        pd = phase_diffusion_constant(1.0, 0.05)
        assert pd.value == pytest.approx(5.1473, abs=2e-4)
        assert pd.rounded_value == pytest.approx(5.2, abs=0.01)

    def test_prefactor_arithmetic(self):
        pd = phase_diffusion_constant(1.0, 1.0)
        assert pd.prefactor == pytest.approx(99.0 / (272.0 * math.sqrt(2.0)), rel=1e-15)
        assert pd.prefactor == pytest.approx(0.25737, abs=1e-5)
        assert round(pd.prefactor, 2) == 0.26

    def test_inverse_delta_scaling(self):
        vals = [phase_diffusion_constant(1.0, d).value * d for d in (0.01, 0.02, 0.05)]
        assert np.allclose(vals, vals[0], rtol=1e-12)

    def test_validation_and_warning(self):
        with pytest.raises(DomainError):
            phase_diffusion_constant(1.0, 0.0)
        with pytest.warns(UserWarning, match="kappa >> gamma"):
            phase_diffusion_constant(1.0, 0.05, gamma=0.5)


class TestCsvExport:
    def test_schema_and_round_trip(self, tmp_path):
        res = spectrum_scan(model_at(0.13), -1.0, 1.0, 41)
        path = tmp_path / "spec.csv"
        spectrum_to_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,S33_re,S33_im,S33_abs"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], res.omega_grid)
        assert np.array_equal(data[:, 3], np.abs(res.S[:, 2, 2]))

    def test_extra_elements(self, tmp_path):
        res = spectrum_scan(model_at(0.13), -1.0, 1.0, 11)
        path = tmp_path / "spec.csv"
        spectrum_to_csv(res, path, extra_pairs=[(0, 1)])
        header = path.read_text().splitlines()[0]
        assert header == "omega,S33_re,S33_im,S33_abs,S12_re,S12_im,S12_abs"
