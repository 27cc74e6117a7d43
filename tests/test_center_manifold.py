import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpulse import (
    DomainError,
    NumericalError,
    SystemParams,
    cm_coefficients,
    cm_report,
    evaluate_manifold,
    hopf_frequency,
    hopf_threshold,
    integrate,
    lyapunov_coefficient,
    normal_form_transform,
    predict_limit_cycle,
    radial_growth_rate,
    to_normal_form,
)
from selfpulse.center_manifold import (
    center_block,
    lyapunov_coefficient_numeric,
    normal_form_cubics,
)

from cm_oracles import (
    closed_form_cm_coefficients,
    cm_denominator,
    manifold_point,
    trace_of_epsilon,
)

kappas = st.floats(0.1, 10.0)
gamma_fracs = st.floats(0.0, 1.0)


class TestTangencySolve:
    @settings(max_examples=50, deadline=None)
    @given(kappas, gamma_fracs)
    def test_residual(self, kappa, gfrac):
        cm = cm_coefficients(kappa, gfrac * kappa)
        assert cm.residual <= 1e-10

    def test_denominator_reference(self):
        assert cm_denominator(1.0, 0.0) == pytest.approx(51.0, rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(kappas, gamma_fracs)
    def test_matches_closed_forms(self, kappa, gfrac):
        gamma = gfrac * kappa
        solved = cm_coefficients(kappa, gamma)
        printed = closed_form_cm_coefficients(kappa, gamma)
        for name in ("A1", "B1", "C1", "A2", "B2", "C2"):
            assert getattr(solved, name) == pytest.approx(getattr(printed, name), rel=1e-9), name

    def test_manifold_invariance_under_flow(self):
        # a trajectory seeded on the quadratic manifold stays O(|c|^3)-close
        for kappa, gamma in [(1.0, 0.0), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5), (2.3, 0.7)]:
            hp = hopf_threshold(kappa, gamma)
            cm = cm_coefficients(kappa, gamma)
            c0 = 1e-3 * np.array([math.cos(0.4), math.sin(0.4)])
            y0 = manifold_point(kappa, gamma, c0[0], c0[1], cm)
            p = SystemParams(kappa=kappa, gamma=gamma, epsilon=hp.epsilon_h)
            T = 2.0 * math.pi / hopf_frequency(kappa, gamma)
            traj = integrate(y0, p, (0.0, T), rel_tol=1e-11, abs_tol=1e-14, n_samples=200)
            h1, h2 = evaluate_manifold(cm, traj.y[:, 0], traj.y[:, 2])
            dev_b = traj.y[:, 1] - (hp.beta_i0h + h1)
            dev_a = traj.y[:, 3] - (hp.alpha_i0h + h2)
            assert max(np.max(np.abs(dev_b)), np.max(np.abs(dev_a))) <= 1e-8


class TestEvaluateManifold:
    def test_zero_at_origin(self):
        cm = cm_coefficients(1.0, 0.1)
        assert evaluate_manifold(cm, 0.0, 0.0) == (0.0, 0.0)

    def test_tangency_gradient_vanishes(self):
        cm = cm_coefficients(1.0, 0.1)
        h = 1e-7
        for dx, dy in [(h, 0.0), (0.0, h)]:
            h1p, h2p = evaluate_manifold(cm, dx, dy)
            h1m, h2m = evaluate_manifold(cm, -dx, -dy)
            assert abs(h1p - h1m) / (2 * h) <= 1e-5
            assert abs(h2p - h2m) / (2 * h) <= 1e-5

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 4.0))
    def test_homogeneous_quadratic_scaling(self, x, y, lam):
        cm = cm_coefficients(0.8, 0.2)
        h1, h2 = evaluate_manifold(cm, x, y)
        h1s, h2s = evaluate_manifold(cm, lam * x, lam * y)
        assert h1s == pytest.approx(lam**2 * h1, rel=1e-12, abs=1e-300)
        assert h2s == pytest.approx(lam**2 * h2, rel=1e-12, abs=1e-300)


class TestNormalFormTransform:
    @settings(max_examples=40, deadline=None)
    @given(kappas, gamma_fracs)
    def test_inverse_identity(self, kappa, gfrac):
        T, Tinv = normal_form_transform(kappa, gfrac * kappa)
        assert np.max(np.abs(T @ Tinv - np.eye(2))) <= 1e-12
        assert np.max(np.abs(Tinv @ T - np.eye(2))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(kappas, gamma_fracs)
    def test_linear_part_becomes_rotation(self, kappa, gfrac):
        gamma = gfrac * kappa
        T, Tinv = normal_form_transform(kappa, gamma)
        om = hopf_frequency(kappa, gamma)
        R = Tinv @ center_block(kappa, gamma) @ T
        assert np.max(np.abs(R - np.array([[0.0, -om], [om, 0.0]]))) <= 1e-10

    def test_memoised_read_only(self):
        T, Tinv = normal_form_transform(1.0, 0.1)
        assert normal_form_transform(1.0, 0.1)[0] is T
        # numpy scalars and 0-d arrays share the memo entry of their float value
        assert normal_form_transform(np.array(1.0), np.float64(0.1))[0] is T
        with pytest.raises(ValueError):
            Tinv[0, 0] = 0.0

    def test_reference_entry(self):
        T, _ = normal_form_transform(1.0, 0.0)
        assert T[0, 1] == pytest.approx(2.0 * (-math.sqrt(1.0 / 8.0)), rel=1e-15)


class TestRadialGrowthRate:
    def test_gamma_zero(self):
        assert radial_growth_rate(1.0, 0.0) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-15)
        assert radial_growth_rate(1.0, 0.0) == pytest.approx(0.942809, abs=1e-6)

    def test_reference_value(self):
        assert radial_growth_rate(1.0, 0.1) == pytest.approx(0.872494, abs=1e-6)

    def test_underflowed_divisor_raises(self):
        # the divisor (3 + 4r) kappa is a normal float at 1e-300, and d exact;
        # at 1e-310 it is subnormal and d overflows
        assert radial_growth_rate(1e-300, 0.0) * 1e-300 == pytest.approx(
            2.0 * math.sqrt(2.0) / 3.0, rel=1e-15)
        with pytest.raises(NumericalError, match="kappa=1e-310, gamma=0"):
            radial_growth_rate(1e-310, 0.0)

    @pytest.mark.parametrize("kappa,gamma", [(1.0, 0.0), (1.0, 0.1), (0.5, 0.5), (2.0, 0.4)])
    def test_trace_finite_difference(self, kappa, gamma):
        # central difference of the exposed trace through the threshold equals
        # -d, and d * kappa is sqrt(8 kappa (kappa+gamma)) / (3 kappa + 4 gamma)
        hp = hopf_threshold(kappa, gamma)
        h = 1e-6
        fd = (trace_of_epsilon(kappa, gamma, hp.epsilon_h + h)
              - trace_of_epsilon(kappa, gamma, hp.epsilon_h - h)) / (2.0 * h)
        d = radial_growth_rate(kappa, gamma)
        unscaled = math.sqrt(8.0 * kappa * (kappa + gamma)) / (3.0 * kappa + 4.0 * gamma)
        assert fd == pytest.approx(-d, abs=1e-6)
        assert fd == pytest.approx(-unscaled / kappa, abs=1e-6)
        assert unscaled == pytest.approx(d * kappa, rel=1e-12)


class TestLyapunovCoefficient:
    def test_gamma_zero_reference(self):
        assert lyapunov_coefficient(1.0, 0.0) == pytest.approx(-33.0 / 68.0, rel=1e-15)
        assert lyapunov_coefficient(2.5, 0.0) == pytest.approx(-33.0 * 2.5 / 68.0, rel=1e-12)

    def test_reference_value(self):
        # both evaluation routes agree on -0.502801 here
        assert lyapunov_coefficient(1.0, 0.1) == pytest.approx(-0.502801, abs=1e-6)
        a_num = lyapunov_coefficient_numeric(1.0, 0.1, cm_coefficients(1.0, 0.1))
        assert a_num == pytest.approx(-0.502801, abs=1e-6)

    # a polynomial in kappa and gamma under- or overflowed here; the form in
    # r = gamma/kappa is exact as long as a itself is a normal float, and
    # raises where it is subnormal
    @pytest.mark.parametrize("kappa", [1e-300, 1e-50])
    def test_underflow_raises(self, kappa):
        assert lyapunov_coefficient(kappa, 0.0) / kappa == pytest.approx(-33.0 / 68.0, rel=1e-15)
        with pytest.raises(NumericalError, match="kappa=1e-310, gamma=0"):
            lyapunov_coefficient(1e-310, 0.0)

    @pytest.mark.parametrize("r", [2.0, 10.0, 77.0])
    def test_large_rate_ratio_form_matches_the_form_in_r(self, r):
        p = 99.0 + r * (490.0 + r * (808.0 + r * (512.0 + r * 128.0)))
        q = 51.0 + r * (284.0 + r * (576.0 + r * (480.0 + r * 128.0)))
        assert lyapunov_coefficient(1.0, r) == pytest.approx(-(1.0 + r) * p / (4.0 * q),
                                                             rel=1e-15)

    def test_large_rate_ratio_stays_finite(self):
        # r = 1e80: r^4 overflows P and Q, and P/Q = 1 + O(1/r)
        kappa, gamma = 1e-100, 1e-20
        assert lyapunov_coefficient(kappa, gamma) == pytest.approx(
            -kappa * (1.0 + gamma / kappa) / 4.0, rel=1e-15)

    def test_supercritical_on_grid(self):
        for kappa in np.geomspace(0.1, 10.0, 20):
            for gamma in np.linspace(0.0, kappa, 20):
                a = lyapunov_coefficient(kappa, gamma)
                assert a < 0.0
                assert radial_growth_rate(kappa, gamma) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(kappas, gamma_fracs)
    def test_numeric_route_agrees(self, kappa, gfrac):
        gamma = gfrac * kappa
        a_closed = lyapunov_coefficient(kappa, gamma)
        a_num = lyapunov_coefficient_numeric(kappa, gamma, cm_coefficients(kappa, gamma))
        assert a_num == pytest.approx(a_closed, rel=1e-9)

    def test_cubic_composition_has_pure_rotation_linear_part(self):
        # the composed cubics are what the numeric route differentiates;
        # spot-check the gamma = 0 coefficients against a direct evaluation
        Nu, Nv = normal_form_cubics(1.0, 0.0, cm_coefficients(1.0, 0.0))
        a = (3.0 * Nu[0] + Nu[2] + Nv[1] + 3.0 * Nv[3]) / 8.0
        assert a == pytest.approx(-33.0 / 68.0, rel=1e-12)


class TestPredictLimitCycle:
    def test_amplitude_reference(self):
        pred = predict_limit_cycle(1.0, 0.0, 0.01)
        assert pred.amplitude_A == pytest.approx(0.139383, abs=1e-6)
        # closed-form route for kappa >> gamma
        alt = math.sqrt(136.0 * math.sqrt(2.0) * 0.01 / 99.0)
        assert pred.amplitude_A == pytest.approx(alt, rel=1e-12)
        assert pred.omega_h == pytest.approx(0.5, rel=1e-15)

    def test_square_root_scaling(self):
        deps = np.geomspace(1e-6, 1e-3, 8)
        amps = [predict_limit_cycle(1.0, 0.1, d).amplitude_A for d in deps]
        slope = np.polyfit(np.log(deps), np.log(amps), 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_orbit_amplitudes_and_constants(self):
        kappa, gamma, deps = 1.0, 0.1, 0.002
        pred = predict_limit_cycle(kappa, gamma, deps)
        hp = hopf_threshold(kappa, gamma)
        t = np.linspace(0.0, 2.0 * math.pi / pred.omega_h, 4001)
        orb = pred.orbit(t)
        # beta_r amplitude is 2|beta_i0h| A (amplitude in original variables)
        assert np.max(np.abs(orb[:, 0])) == pytest.approx(
            2.0 * abs(hp.beta_i0h) * pred.amplitude_A, rel=1e-6)
        assert np.allclose(orb[:, 1], hp.beta_i0h - 2.0 * deps / (3 * kappa + 4 * gamma))
        assert np.allclose(
            orb[:, 3],
            hp.alpha_i0h - 2.0 * math.sqrt(2 * kappa * (kappa + gamma)) * deps
            / (kappa * (3 * kappa + 4 * gamma)))

    def test_orbit_point_set_lies_on_flow_attractor(self):
        # the parametrized ellipse agrees with the (u, v) circle of radius A
        pred = predict_limit_cycle(1.0, 0.0, 0.001)
        t = np.linspace(0.0, 4.0 * math.pi / pred.omega_h, 300)
        orb = pred.orbit(t, phase=0.3)
        u, v = to_normal_form(1.0, 0.0, orb[:, 0], orb[:, 2])
        assert np.allclose(np.hypot(u, v), pred.amplitude_A, rtol=1e-10)

    def test_invalid_delta_epsilon(self):
        with pytest.raises(DomainError):
            predict_limit_cycle(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            predict_limit_cycle(1.0, 0.0, -0.1)

    def test_warns_far_from_threshold(self):
        eps_h = hopf_threshold(1.0, 0.0).epsilon_h
        with pytest.warns(UserWarning, match="0.2"):
            predict_limit_cycle(1.0, 0.0, 0.5 * eps_h)


class TestReport:
    def test_report_keys(self):
        doc = cm_report(1.0, 0.1)
        assert set(doc) == {
            "kappa", "gamma", "beta_i0h", "alpha_i0h", "coefficients",
            "d", "a", "a_numeric", "omega_h", "epsilon_h",
        }
        assert set(doc["coefficients"]) == {"A1", "B1", "C1", "A2", "B2", "C2"}
        assert doc["epsilon_h"] == pytest.approx(0.222486, abs=1e-6)

    #: The power p of kappa that each closed form carries as kappa^p f(gamma/kappa).
    POWERS = {"epsilon_h": 2, "omega_h": 1, "d": -1, "a": 1, "a_numeric": 1,
              "beta_i0h": 1, "alpha_i0h": 1}

    @pytest.mark.parametrize("kappa", np.geomspace(1e-150, 1e150, 13))
    def test_scales_with_kappa(self, kappa):
        for r in np.linspace(0.0, 5.0, 11):
            doc = cm_report(kappa, r * kappa)
            unit = cm_report(1.0, doc["gamma"] / kappa)
            for name, p in self.POWERS.items():
                assert doc[name] == pytest.approx(kappa**p * unit[name], rel=1e-15), name
            for name, value in doc["coefficients"].items():
                assert value == pytest.approx(unit["coefficients"][name] / kappa,
                                              rel=1e-15, abs=0.0), name
