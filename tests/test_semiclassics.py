import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpulse import (
    DomainError,
    SemiclassicalState,
    NumericalError,
    SystemParams,
    Trajectory,
    classify_fixed_point,
    detect_limit_cycle,
    fixed_point,
    hopf_eigenvalues,
    hopf_frequency,
    hopf_threshold,
    integrate,
    jacobian,
    predict_limit_cycle,
    vector_field,
)
from selfpulse import cli, semiclassics
from selfpulse.semiclassics import cubic_residual

# strategies for well-conditioned parameter draws
kappas = st.floats(0.1, 10.0)
gamma_fracs = st.floats(0.0, 1.0)


def params_at(kappa, gamma, epsilon):
    return SystemParams(kappa=kappa, gamma=gamma, epsilon=epsilon)


def _reference_crossings(traj, transient_fraction=0.5, root=None):
    """Section crossing times by a loop over samples and an 80-step bisection.

    The route ``detect_limit_cycle`` took before its vectorised pass, kept
    as an independent reference.  ``root(f, ta, tb)``, if given, replaces
    the bisection on each bracket.
    """
    root = root or _reference_bisection
    t0, t1 = traj.times[0], traj.times[-1]
    sel = traj.times >= t0 + transient_fraction * (t1 - t0)
    ts, br, ar = traj.times[sel], traj.y[sel, 0], traj.y[sel, 2]
    crossings = []
    for i in range(len(ts) - 1):
        if br[i] == 0.0 and ar[i] < 0.0:
            crossings.append(ts[i])
        elif br[i] * br[i + 1] < 0.0 and 0.5 * (ar[i] + ar[i + 1]) < 0.0:
            crossings.append(root(lambda t: traj.dense(t)[0], ts[i], ts[i + 1]))
    return np.asarray(crossings)


def _reference_bisection(f, ta, tb):
    """Midpoint of a sign-change bracket of f halved below 1e-13 * max(1, |t|)."""
    fa = f(ta)
    for _ in range(80):
        tm = 0.5 * (ta + tb)
        fm = f(tm)
        if fm == 0.0 or (tb - ta) < 1e-13 * max(1.0, abs(tm)):
            return tm
        if (fa < 0.0) == (fm < 0.0):
            ta, fa = tm, fm
        else:
            tb = tm
    return 0.5 * (ta + tb)


class TestVectorField:
    def test_origin_is_equilibrium_without_drive(self):
        p = params_at(1.0, 0.1, 0.0)
        assert np.all(vector_field(np.zeros(4), p) == 0.0)

    def test_fixed_point_annihilates_field(self):
        p = params_at(1.0, 0.1, 0.13)
        fp = fixed_point(p)
        f = vector_field(fp.to_vector(), p)
        assert np.max(np.abs(f)) <= 1e-10

    def test_matches_complex_form(self):
        # dalpha/dt = i chi beta^2 - kappa/2 alpha,
        # dbeta/dt  = 2 i chi conj(beta) alpha - i eps - gamma/2 beta
        p = params_at(0.8, 0.3, 0.21)
        rng = np.random.default_rng(1234)
        for _ in range(100):
            y = rng.uniform(-2, 2, size=4)
            br, bi, ar, ai = y
            beta = complex(br, bi)
            alpha = complex(ar, ai)
            dalpha = 1j * beta**2 - p.kappa / 2.0 * alpha
            dbeta = 2j * np.conj(beta) * alpha - 1j * p.epsilon - p.gamma / 2.0 * beta
            f = vector_field(y, p)
            assert f[0] == pytest.approx(dbeta.real, rel=1e-12, abs=1e-12)
            assert f[1] == pytest.approx(dbeta.imag, rel=1e-12, abs=1e-12)
            assert f[2] == pytest.approx(dalpha.real, rel=1e-12, abs=1e-12)
            assert f[3] == pytest.approx(dalpha.imag, rel=1e-12, abs=1e-12)

    def test_batched_states_match_single_calls(self):
        p = params_at(0.8, 0.3, 0.21)
        ys = np.random.default_rng(7).uniform(-2, 2, size=(2, 3, 4))
        f = vector_field(ys, p)
        assert f.shape == ys.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(f[idx], vector_field(ys[idx], p))

    def test_float_tuple_matches_array(self):
        # the tuple form integrate steps in gives the array form's values bit for bit
        p = params_at(0.8, 0.3, 0.21)
        ys = np.random.default_rng(11).uniform(-2, 2, size=(50, 4))
        for y in ys:
            f = vector_field(tuple(y.tolist()), p)
            assert type(f) is tuple and all(type(v) is float for v in f)
            assert np.array_equal(np.array(f), vector_field(y, p))


class TestFixedPoint:
    def test_origin_at_zero_drive(self):
        fp = fixed_point(params_at(1.0, 0.1, 0.0))
        assert fp.beta_i0 == 0.0 and fp.alpha_i0 == 0.0

    def test_reference_root(self):
        fp = fixed_point(params_at(1.0, 0.1, 0.13))
        assert fp.beta_i0 == pytest.approx(-0.30608, abs=1e-5)
        assert fp.alpha_i0 == pytest.approx(-0.18737, abs=1e-5)
        assert abs(fp.residual) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(kappas, gamma_fracs, st.floats(-10.0, 10.0))
    def test_residual_and_sign(self, kappa, gfrac, eps):
        p = params_at(kappa, gfrac * kappa, eps)
        fp = fixed_point(p)
        assert abs(cubic_residual(fp.beta_i0, p)) <= 1e-12
        if eps != 0.0:
            assert math.copysign(1.0, fp.beta_i0) == -math.copysign(1.0, eps)
        assert fp.alpha_i0 == pytest.approx(-2.0 * fp.beta_i0**2 / kappa, rel=1e-14)

    # k |eps| / 4 underflows to 0 here, which once collapsed the root bracket.
    @pytest.mark.parametrize("eps", [5e-324, -5e-324, 1e-320, 2.2e-308])
    @pytest.mark.parametrize("kappa, gfrac", [(1.0, 0.0), (0.1, 1.0), (10.0, 0.5)])
    def test_subnormal_drive(self, kappa, gfrac, eps):
        p = params_at(kappa, gfrac * kappa, eps)
        fp = fixed_point(p)
        assert abs(cubic_residual(fp.beta_i0, p)) <= 1e-12
        assert math.copysign(1.0, fp.beta_i0) == -math.copysign(1.0, eps)

    @settings(max_examples=60, deadline=None)
    @given(kappas, gamma_fracs, st.floats(1e-4, 10.0))
    def test_odd_symmetry_in_drive(self, kappa, gfrac, eps):
        gamma = gfrac * kappa
        plus = fixed_point(params_at(kappa, gamma, eps))
        minus = fixed_point(params_at(kappa, gamma, -eps))
        assert plus.beta_i0 == pytest.approx(-minus.beta_i0, rel=1e-12)

    # In units of 1/kappa the cubic depends on r = gamma/kappa and
    # e = epsilon/kappa^2 alone, so the critical point scales as kappa.
    # Past kappa ~ 1e100 at these drives, beta_i0^3 overflows in the cubic.
    @pytest.mark.parametrize("kappa", [1e-100, 1e-30, 1e-3, 0.37, 3.0, 1e3, 1e30, 1e100])
    def test_scales_with_kappa(self, kappa):
        for r in (0.0, 0.1, 2.0, 5.0):
            for e in (1e-6, 0.13, -0.5, 100.0):
                p = params_at(kappa, r * kappa, e * kappa * kappa)
                unit = fixed_point(params_at(1.0, p.gamma / kappa, p.epsilon / kappa / kappa))
                fp = fixed_point(p)
                assert fp.beta_i0 == pytest.approx(kappa * unit.beta_i0, rel=1e-14)
                assert fp.alpha_i0 == pytest.approx(kappa * unit.alpha_i0, rel=1e-14)

    def test_tiny_drive(self):
        # the root is -6.3e-41; from a bracket of fixed width [-1, 0] Newton
        # needed more steps than the loop allows and returned -3.0e-36
        fp = fixed_point(params_at(1.0, 0.0, 1e-120))
        assert fp.beta_i0 == pytest.approx(-(2.5e-121) ** (1.0 / 3.0), rel=1e-14)


class TestJacobian:
    def test_decoupled_at_zero_drive(self):
        p = params_at(1.2, 0.4, 0.0)
        ev = np.sort(np.linalg.eigvals(jacobian(fixed_point(p), p)).real)
        expected = np.sort([-p.gamma / 2] * 2 + [-p.kappa / 2] * 2)
        assert np.allclose(ev, expected, atol=1e-14)

    # past gamma = (1 + sqrt 3) kappa the stable pair is real
    @pytest.mark.parametrize("kappa,gamma", [(1.0, 0.0), (1.0, 0.1), (0.5, 0.5), (3.0, 1.0),
                                             (1.0, 3.0), (0.5, 2.0)])
    def test_closed_form_eigenvalues_at_threshold(self, kappa, gamma):
        hp = hopf_threshold(kappa, gamma)
        p = params_at(kappa, gamma, hp.epsilon_h)
        ev = np.linalg.eigvals(jacobian(fixed_point(p), p))
        expected = hopf_eigenvalues(kappa, gamma)
        assert np.allclose(np.sort_complex(ev), np.sort_complex(expected), atol=1e-8)

    @pytest.mark.parametrize("r", [5.0, 100.0])
    def test_real_stable_pair_matches_eigvals(self, r):
        p = params_at(1.0, r, hopf_threshold(1.0, r).epsilon_h)
        numeric = np.sort(np.linalg.eigvals(jacobian(fixed_point(p), p)).real)[:2]
        closed = hopf_eigenvalues(1.0, r)[2:]
        assert np.all(closed.imag == 0.0)
        assert np.allclose(closed.real, numeric, rtol=1e-12, atol=0.0)

    # -(1+r) + sqrt(r^2 - 2r - 2) cancels to 0 here; the small root is -kappa (1 + 3/(4r)).
    @pytest.mark.parametrize("kappa, r", [(1.0, 1e16), (1.0, 1e20), (1e-100, 1e80)])
    def test_small_stable_root_at_large_r(self, kappa, r):
        small = hopf_eigenvalues(kappa, kappa * r)[3]
        assert small.real == pytest.approx(-kappa * (1.0 + 0.75 / r), rel=1e-15, abs=0.0)

    def test_matches_finite_differences(self):
        p = params_at(0.9, 0.25, 0.17)
        fp = fixed_point(p)
        x0 = fp.to_vector()
        J = jacobian(fp, p)
        h = 1e-6
        J_fd = np.empty((4, 4))
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = h
            J_fd[:, j] = (vector_field(x0 + dx, p) - vector_field(x0 - dx, p)) / (2 * h)
        assert np.max(np.abs(J - J_fd)) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(kappas, gamma_fracs, st.floats(0.0, 5.0))
    def test_eigenvalues_pair_into_conjugates(self, kappa, gfrac, eps):
        p = params_at(kappa, gfrac * kappa, eps)
        ev = np.linalg.eigvals(jacobian(fixed_point(p), p))
        assert np.allclose(np.sort_complex(ev), np.sort_complex(np.conj(ev)), atol=1e-10)


class TestHopfThreshold:
    def test_gamma_zero_closed_form(self):
        hp = hopf_threshold(1.0, 0.0)
        assert hp.epsilon_h == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), rel=1e-15)
        assert hp.epsilon_h == pytest.approx(0.176777, abs=1e-6)

    def test_reference_value(self):
        assert hopf_threshold(1.0, 0.1).epsilon_h == pytest.approx(0.222486, abs=1e-6)

    def test_critical_point_coordinates(self):
        hp = hopf_threshold(2.0, 0.5)
        assert hp.beta_i0h == pytest.approx(-math.sqrt(2.0 * 2.5 / 8.0), rel=1e-15)
        assert hp.alpha_i0h == pytest.approx(-2.5 / 4.0, rel=1e-15)

    def test_bisection_cross_check(self):
        # locate the eigenvalue real-part crossing by bisection on eps
        for kappa, gamma in [(1.0, 0.1), (0.7, 0.3), (2.5, 0.0)]:
            hp = hopf_threshold(kappa, gamma)

            def max_re(eps):
                p = params_at(kappa, gamma, eps)
                return np.max(np.linalg.eigvals(jacobian(fixed_point(p), p)).real)

            lo, hi = 0.5 * hp.epsilon_h, 1.5 * hp.epsilon_h
            assert max_re(lo) < 0 < max_re(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if max_re(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            assert 0.5 * (lo + hi) == pytest.approx(hp.epsilon_h, abs=1e-8)

    def test_monotone_in_gamma(self):
        for kappa in (0.5, 1.0, 4.0):
            vals = [hopf_threshold(kappa, g).epsilon_h for g in np.linspace(0.0, kappa, 12)]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestHopfFrequency:
    def test_values(self):
        assert hopf_frequency(1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
        assert hopf_frequency(1.0, 0.1) == pytest.approx(0.547723, abs=1e-6)

    @pytest.mark.parametrize("kappa,gamma", [(1.0, 0.0), (1.0, 0.1), (0.5, 0.5)])
    def test_equals_marginal_imaginary_part(self, kappa, gamma):
        hp = hopf_threshold(kappa, gamma)
        p = params_at(kappa, gamma, hp.epsilon_h)
        ev = np.linalg.eigvals(jacobian(fixed_point(p), p))
        marginal = ev[np.argmin(np.abs(ev.real))]
        assert abs(marginal.imag) == pytest.approx(hopf_frequency(kappa, gamma), abs=1e-10)


class TestClassification:
    def test_stable_below_threshold(self):
        p = params_at(1.0, 0.1, 0.13)
        rep = classify_fixed_point(p, fixed_point(p))
        assert rep.classification == "stable-focus/node"
        assert rep.max_real_part < 0

    def test_marginal_at_threshold(self):
        hp = hopf_threshold(1.0, 0.1)
        p = params_at(1.0, 0.1, hp.epsilon_h)
        rep = classify_fixed_point(p, fixed_point(p))
        assert rep.classification == "hopf-marginal"

    def test_unstable_above_threshold(self):
        hp = hopf_threshold(1.0, 0.1)
        p = params_at(1.0, 0.1, 1.2 * hp.epsilon_h)
        rep = classify_fixed_point(p, fixed_point(p))
        assert rep.classification == "unstable (limit-cycle regime)"


class TestIntegrate:
    def test_conservation_without_damping_or_drive(self):
        # 2|alpha|^2 + |beta|^2 is conserved by the interaction alone
        p = SystemParams(kappa=0.0, gamma=0.0, epsilon=0.0)
        y0 = [0.0, 0.4, 0.3, 0.0]  # beta = 0.4i, alpha = 0.3
        traj = integrate(y0, p, (0.0, 100.0), n_samples=400)
        N = 2.0 * (traj.y[:, 2] ** 2 + traj.y[:, 3] ** 2) + traj.y[:, 0] ** 2 + traj.y[:, 1] ** 2
        assert np.max(np.abs(N - N[0])) <= 1e-8

    def test_fixed_point_requires_positive_kappa(self):
        with pytest.raises(DomainError):
            fixed_point(SystemParams(kappa=0.0, gamma=0.0, epsilon=0.1))

    def test_converges_to_fixed_point_below_threshold(self):
        p = params_at(1.0, 0.1, 0.13)
        fp = fixed_point(p)
        y0 = fp.to_vector() + np.array([0.05, -0.03, 0.04, 0.02])
        traj = integrate(y0, p, (0.0, 200.0), n_samples=400)
        assert np.allclose(traj.y[-1], fp.to_vector(), atol=1e-6)

    def test_approaches_closed_orbit_above_threshold(self):
        kappa, gamma = 1.0, 0.0
        hp = hopf_threshold(kappa, gamma)
        eps = hp.epsilon_h * 1.1
        p = params_at(kappa, gamma, eps)
        fp = fixed_point(p)
        y0 = fp.to_vector() + np.array([0.05, 0.0, 0.0, 0.0])
        T = 2.0 * math.pi / hopf_frequency(kappa, gamma)
        traj = integrate(y0, p, (0.0, 80.0 * T), n_samples=4800)
        meas = detect_limit_cycle(traj, transient_fraction=0.6)
        assert meas.converged
        assert meas.amplitude_beta_r > 0.01

    def test_tolerance_validation(self):
        p = params_at(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            integrate(np.zeros(4), p, (0.0, 1.0), rel_tol=0.5)
        with pytest.raises(DomainError, match="100 machine epsilons"):
            integrate(np.zeros(4), p, (0.0, 1.0), rel_tol=1e-15)
        with pytest.raises(DomainError):
            integrate(np.zeros(4), p, (0.0, 1.0), abs_tol=0.0)
        with pytest.raises(DomainError):
            integrate(np.zeros(4), p, (0.0, math.inf))

    def test_scales_with_kappa(self):
        # kappa Y(kappa t), with Y the unit-kappa solution from y0/kappa at
        # r = gamma/kappa and e = epsilon/kappa^2, solves the equations at kappa
        kappa, gamma = 3.0, 0.6
        p = params_at(kappa, gamma, 1.02 * hopf_threshold(kappa, gamma).epsilon_h)
        unit = params_at(1.0, gamma / kappa, p.epsilon / kappa / kappa)
        y0 = fixed_point(p).to_vector() + np.array([0.15, 0.0, 0.0, 0.0])
        T = 10.0 * 2.0 * math.pi / hopf_frequency(kappa, gamma)
        a = integrate(y0, p, (0.0, T), rel_tol=1e-11, n_samples=500)
        b = integrate(y0 / kappa, unit, (0.0, kappa * T), rel_tol=1e-11, n_samples=500)
        assert np.max(np.abs(a.y - kappa * b.y)) <= 1e-9 * np.max(np.abs(a.y))

    def test_deterministic(self):
        p = params_at(1.0, 0.1, 0.2)
        a = integrate([0.1, 0.0, 0.0, 0.0], p, (0.0, 30.0))
        b = integrate([0.1, 0.0, 0.0, 0.0], p, (0.0, 30.0))
        assert np.array_equal(a.y, b.y)

    def test_reflection_symmetry(self):
        # (br, bi, ar, ai, eps) -> (-br, -bi, ar, ai, -eps) maps solutions to solutions
        rng = np.random.default_rng(77)
        for _ in range(3):
            y0 = rng.uniform(-0.5, 0.5, size=4)
            p_plus = params_at(1.3, 0.2, 0.3)
            p_minus = params_at(1.3, 0.2, -0.3)
            y0_ref = np.array([-y0[0], -y0[1], y0[2], y0[3]])
            a = integrate(y0, p_plus, (0.0, 20.0), n_samples=50)
            b = integrate(y0_ref, p_minus, (0.0, 20.0), n_samples=50)
            mapped = np.column_stack([-a.y[:, 0], -a.y[:, 1], a.y[:, 2], a.y[:, 3]])
            assert np.allclose(b.y, mapped, atol=1e-7)

    def test_step_budget_refuses_long_runs(self, monkeypatch):
        p = params_at(1.0, 0.1, 0.2)
        monkeypatch.setattr(semiclassics, "MAX_STEPS", 50)
        with pytest.raises(NumericalError, match="after 50 steps") as exc:
            integrate([0.1, 0.0, 0.0, 0.0], p, (0.0, 1e4))
        assert 0.0 < exc.value.time_reached < 1e4
        traj = integrate([0.1, 0.0, 0.0, 0.0], p, (0.0, 1.0))
        assert len(traj.dense.ts) - 1 <= 50

    def test_output_times_validation(self):
        p = params_at(1.0, 0.1, 0.2)
        for n_samples in (0, -1, semiclassics.MAX_SAMPLES + 1):
            with pytest.raises(DomainError, match="n_samples"):
                integrate(np.zeros(4), p, (0.0, 1.0), n_samples=n_samples)

    def test_default_tolerances_agree_with_tight_run_above_threshold(self):
        # second route: the same integrator at rel_tol = 1e-13 as the reference
        kappa, gamma = 1.0, 0.1
        hp = hopf_threshold(kappa, gamma)
        deps = 0.05 * hp.epsilon_h
        pred = predict_limit_cycle(kappa, gamma, deps)
        p = params_at(kappa, gamma, hp.epsilon_h + deps)
        T = 2.0 * math.pi / pred.omega_h
        y0 = pred.orbit(0.0)[0]
        a = integrate(y0, p, (0.0, 20.0 * T), n_samples=1200)
        b = integrate(y0, p, (0.0, 20.0 * T), rel_tol=1e-13, abs_tol=1e-15, n_samples=1200)
        assert np.max(np.abs(a.y - b.y)) <= 1e-7 * np.max(np.abs(b.y))


def _scipy_dop853(y0, params, t_final, times):
    """The same problem through scipy's solve_ivp at the default tolerances."""
    from scipy.integrate import solve_ivp

    return solve_ivp(lambda t, y: vector_field(y, params), (0.0, t_final), y0,
                     method="DOP853", dense_output=True, rtol=1e-9, atol=1e-12, t_eval=times)


def _assert_same_integration(traj, ref, t_check):
    """integrate and solve_ivp agree on samples, step count and interpolant."""
    scale = np.max(np.abs(ref.y))
    assert np.max(np.abs(traj.y - ref.y.T)) <= 1e-11 * scale
    assert len(traj.dense.ts) == len(ref.sol.ts)  # the same number of accepted steps
    assert np.all(np.diff(traj.dense.ts) > 0)
    states = traj.dense(t_check)
    assert states.shape == (4, len(t_check))
    assert traj.dense(t_check[0]).shape == (4,)
    assert np.array_equal(traj.dense(t_check[0]), states[:, 0])
    assert np.max(np.abs(states - ref.sol(t_check))) <= 1e-11 * scale


def _scipy_brentq(f, ta, tb):
    """scipy's brentq on a crossing bracket, at detect_limit_cycle's tolerance."""
    from scipy.optimize import brentq

    return brentq(f, ta, tb, xtol=1e-14 * max(1.0, abs(tb)))


class TestScipyRoute:
    """Second route for integrate and its crossings: scipy's own DOP853 and brentq."""

    def test_tableau_is_scipys(self):
        from scipy.integrate import DOP853

        from selfpulse import _dop853

        def dense(rows, width):
            m = np.zeros((len(rows), width))
            for i, row in enumerate(rows):
                stages = [j for j, _ in row]
                assert stages == sorted(set(stages))  # _combine adds in stage order
                for j, c in row:
                    m[i, j] = c
            return m

        assert np.array_equal(dense(_dop853.STAGES, 12), DOP853.A[1:])
        assert np.array_equal(dense([_dop853.B], 12)[0], DOP853.B)
        assert np.array_equal(dense([_dop853.E5], 13)[0], DOP853.E5)
        assert np.array_equal(dense([_dop853.E3], 13)[0], DOP853.E3)
        assert np.array_equal(dense(_dop853.EXTRA, 16), DOP853.A_EXTRA)
        assert np.array_equal(dense(_dop853.D, 16), DOP853.D)

    @pytest.mark.parametrize("kappa, gamma", [(1.0, 0.0), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5)])
    def test_criterion_3_orbits(self, kappa, gamma):
        # 150 periods at 1% above threshold, checked at the Poincare crossings too
        hp = hopf_threshold(kappa, gamma)
        deps = 0.01 * hp.epsilon_h
        pred = predict_limit_cycle(kappa, gamma, deps)
        t_final = 150.0 * 2.0 * math.pi / pred.omega_h
        p = params_at(kappa, gamma, hp.epsilon_h + deps)
        y0 = pred.orbit(0.0)[0]
        traj = integrate(y0, p, (0.0, t_final), n_samples=7500)
        meas = detect_limit_cycle(traj)
        assert meas.converged and meas.n_crossings >= 70
        _assert_same_integration(traj, _scipy_dop853(y0, p, t_final, traj.times),
                                 meas.crossing_times)
        # every crossing bracket refined to the same float as scipy's brentq
        assert np.array_equal(meas.crossing_times, _reference_crossings(traj, root=_scipy_brentq))

    def test_default_simulate_run(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
        q = json.loads((tmp_path / "simulate_manifest.json").read_text())["parameters"]
        p = SystemParams(kappa=q["kappa"], gamma=q["gamma"], epsilon=q["epsilon"])
        y0 = SemiclassicalState(alpha=complex(q["alpha0"]), beta=complex(q["beta0"])).to_vector()
        traj = integrate(y0, p, (0.0, q["t_final"]), rel_tol=q["rel_tol"], abs_tol=q["abs_tol"],
                         n_samples=q["n_samples"])
        written = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(written, np.column_stack([traj.times, traj.y]))
        midpoints = 0.5 * (traj.dense.ts[1:] + traj.dense.ts[:-1])
        _assert_same_integration(traj, _scipy_dop853(y0, p, q["t_final"], traj.times),
                                 midpoints)


class TestBrentq:
    """The in-package Brent root finder returns scipy's brentq's float."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (math.sin, 3.0, 4.0),
        (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
        (lambda x: math.atan(x - 0.3), -3.7, 3.6),
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.tanh(50.0 * (x - 0.1234)), -2.0, 3.0),
        (lambda x: -1.0 if x < 0.3 else 1.0, -1.0, 2.0),  # a jump: equal values, no secant
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),  # products of two values underflow
    ], ids=["cubic", "sin", "exp", "atan", "sqrt2", "tanh", "step", "tiny"])
    @pytest.mark.parametrize("xtol", [1e-3, 2e-12, 1e-14, 5e-324])
    def test_matches_scipy(self, f, a, b, xtol):
        from scipy.optimize import brentq

        assert semiclassics._brentq(f, a, b, xtol).hex() == brentq(f, a, b, xtol=xtol).hex()

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0)])
    def test_root_at_an_endpoint(self, a, b):
        from scipy.optimize import brentq

        f = lambda x: x - 1.0  # noqa: E731
        assert semiclassics._brentq(f, a, b, 1e-12) == brentq(f, a, b, xtol=1e-12) == 1.0

    def test_no_convergence_in_100_iterations_raises(self):
        from scipy.optimize import brentq

        f = lambda x: (x - 1e-3) ** 5  # noqa: E731
        with pytest.raises(RuntimeError, match="converge"):
            brentq(f, -1.0, 2.0)
        with pytest.raises(NumericalError, match="100 iterations"):
            semiclassics._brentq(f, -1.0, 2.0, 2e-12)

    def test_agreeing_signs_raise(self):
        from scipy.optimize import brentq

        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            semiclassics._brentq(f, -1.0, 1.0, 2e-12)


class TestDetectLimitCycle:
    def test_no_cycle_below_threshold(self):
        p = params_at(1.0, 0.1, 0.13)
        fp = fixed_point(p)
        y0 = fp.to_vector() + np.array([0.02, 0.0, 0.01, 0.0])
        T = 2.0 * math.pi / hopf_frequency(1.0, 0.1)
        traj = integrate(y0, p, (0.0, 40.0 * T), n_samples=2400)
        meas = detect_limit_cycle(traj)
        assert not meas.converged

    @pytest.mark.parametrize("amplitude, converged", [(1e-11, False), (1e-1, True)])
    def test_amplitude_floor(self, amplitude, converged):
        # a perfectly periodic wiggle about the fixed point, exact between samples
        p = params_at(1.0, 0.1, 0.13)
        fp = fixed_point(p).to_vector()
        omega = hopf_frequency(1.0, 0.1)

        def state(t):
            c, s = np.cos(omega * t), np.sin(omega * t)
            return fp + amplitude * np.stack([c, s, s, -c], axis=-1)

        times = np.linspace(0.0, 40.0 * 2.0 * math.pi / omega, 2400)
        traj = Trajectory(times=times, y=state(times), params=p,
                          dense=lambda t: state(t).T)
        meas = detect_limit_cycle(traj)
        assert meas.n_crossings >= 10
        assert meas.amplitude_beta_r == pytest.approx(amplitude, rel=1e-3)
        assert meas.converged is converged

    def test_period_matches_prediction_near_threshold(self):
        kappa, gamma = 1.0, 0.0
        hp = hopf_threshold(kappa, gamma)
        deps = 0.01 * hp.epsilon_h
        from selfpulse import predict_limit_cycle

        pred = predict_limit_cycle(kappa, gamma, deps)
        p = params_at(kappa, gamma, hp.epsilon_h + deps)
        T = 2.0 * math.pi / pred.omega_h
        traj = integrate(pred.orbit(0.0)[0], p, (0.0, 120.0 * T), n_samples=7200)
        meas = detect_limit_cycle(traj)
        assert meas.converged
        assert meas.period == pytest.approx(T, rel=0.02)

    def test_crossings_match_bisection_reference(self):
        # a criterion-3 orbit: k=0.5, g=0.5 at 1% above threshold, 150 periods
        kappa, gamma = 0.5, 0.5
        hp = hopf_threshold(kappa, gamma)
        deps = 0.01 * hp.epsilon_h
        pred = predict_limit_cycle(kappa, gamma, deps)
        T = 2.0 * math.pi / pred.omega_h
        p = params_at(kappa, gamma, hp.epsilon_h + deps)
        traj = integrate(pred.orbit(0.0)[0], p, (0.0, 150.0 * T), n_samples=7500)
        meas = detect_limit_cycle(traj)
        ref = _reference_crossings(traj)
        assert meas.converged
        assert meas.n_crossings == len(ref) >= 70
        assert np.all(np.abs(meas.crossing_times - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_sample_on_the_section_is_a_crossing(self):
        # beta_r(0) = 0 exactly with alpha_r(0) < 0: the first sample is itself a crossing
        p = params_at(1.0, 0.1, 0.13)
        omega = hopf_frequency(1.0, 0.1)

        def state(t):
            c, s = np.cos(omega * t), np.sin(omega * t)
            return 0.1 * np.stack([s, c, -c, s], axis=-1)

        times = np.linspace(0.0, 20.5 * 2.0 * math.pi / omega, 1230)
        traj = Trajectory(times=times, y=state(times), params=p,
                          dense=lambda t: state(t).T)
        meas = detect_limit_cycle(traj, transient_fraction=0.0)
        ref = _reference_crossings(traj, transient_fraction=0.0)
        assert traj.y[0, 0] == 0.0 and traj.y[0, 2] < 0.0
        assert meas.crossing_times[0] == ref[0] == 0.0
        assert meas.n_crossings == len(ref) == 21
        assert meas.period == pytest.approx(2.0 * math.pi / omega, rel=1e-12)
        assert meas.converged

    def test_span_precondition(self):
        p = params_at(1.0, 0.1, 0.1)
        traj = integrate(np.zeros(4), p, (0.0, 10.0), n_samples=100)
        with pytest.raises(DomainError, match="candidate"):
            detect_limit_cycle(traj)


class TestTrajectoryCsv:
    def test_full_precision_round_trip(self, tmp_path):
        p = params_at(1.0, 0.1, 0.2)
        traj = integrate([0.1, -0.2, 0.3, 0.05], p, (0.0, 5.0), n_samples=20)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,beta_r,beta_i,alpha_r,alpha_i"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.y)
