import dataclasses
import math
import time

import numpy as np
import pytest

from selfpulse import (
    SystemParams,
    detect_limit_cycle,
    hopf_threshold,
    integrate,
    jacobian,
    predict_limit_cycle,
    radial_growth_rate,
    vector_field,
)
from selfpulse import commands, cycles

FIGURE1_PAIRS = [(1.0, 0.0), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5)]


def collocate(kappa, gamma, frac):
    """The collocated cycle at drive (1 + frac) epsilon_h."""
    eps_h = hopf_threshold(kappa, gamma).epsilon_h
    params = SystemParams(kappa, gamma, eps_h + frac * eps_h)
    return cycles.limit_cycle(predict_limit_cycle(kappa, gamma, frac * eps_h), params)


@pytest.fixture(scope="module")
def near_threshold():
    """The collocated cycles of the Figure-1 pairs at 0.01 epsilon_h."""
    return {pair: collocate(*pair, 0.01) for pair in FIGURE1_PAIRS}


class TestCollocation:
    @pytest.mark.parametrize("kappa, gamma", FIGURE1_PAIRS)
    def test_period_agrees_with_the_poincare_route(self, kappa, gamma):
        # the transient route: 150 periods at rel_tol 1e-11, crossings on the
        # DOP853 interpolant; at 0.2 epsilon_h the radial multiplier is <= 0.45,
        # so its transient has died
        orbit = collocate(kappa, gamma, 0.2)
        pred = predict_limit_cycle(kappa, gamma, 0.2 * hopf_threshold(kappa, gamma).epsilon_h)
        traj = integrate(pred.orbit(0.0)[0], orbit.params,
                         (0.0, 150.0 * 2.0 * math.pi / pred.omega_h), rel_tol=1e-11,
                         n_samples=9000)
        meas = detect_limit_cycle(traj, transient_fraction=0.5)
        assert meas.converged
        assert abs(orbit.period - meas.period) <= 1e-8 * meas.period

    @pytest.mark.parametrize("kappa, gamma", FIGURE1_PAIRS)
    def test_trivial_and_radial_multipliers(self, near_threshold, kappa, gamma):
        orbit = near_threshold[(kappa, gamma)]
        mu = cycles.floquet_multipliers(orbit)
        assert abs(mu[0] - 1.0) <= 1e-6
        # the normal form's radial multiplier over one period, exp(-2 d deps T)
        deps = 0.01 * hopf_threshold(kappa, gamma).epsilon_h
        radial = math.exp(-2.0 * radial_growth_rate(kappa, gamma) * deps * orbit.period)
        assert np.min(np.abs(np.abs(mu[1:]) - radial)) <= 1e-3

    @pytest.mark.parametrize("kappa, gamma", FIGURE1_PAIRS)
    def test_closure_by_integration(self, near_threshold, kappa, gamma):
        assert cycles.closure(near_threshold[(kappa, gamma)]) <= 1e-6

    @pytest.mark.parametrize("kappa, gamma", FIGURE1_PAIRS)
    def test_collocation_equations_hold_between_nodes(self, near_threshold, kappa, gamma):
        # the interpolant, not only its nodes, solves dx/dt = f(x)
        orbit = near_threshold[(kappa, gamma)]
        t = np.linspace(0.0, orbit.period, 97)
        h = 1e-5 * orbit.period
        velocity = (orbit(t + h) - orbit(t - h)) / (2.0 * h)
        flow = vector_field(orbit(t), orbit.params)
        assert np.max(np.abs(velocity - flow)) <= 1e-8 * np.max(np.abs(flow))
        assert orbit(0.0)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_settled_span_meets_the_detection_floor(self):
        # at (1.3, 0.2), (10 * 2 pi) / omega_h rounds below 10 * (2 pi / omega_h),
        # the span of ten candidate periods that detect_limit_cycle demands
        assert collocate(1.3, 0.2, 0.05).period > 0.0

    def test_far_drive_converges_stable(self):
        # delta_eps = 6.5 epsilon_h (epsilon = 7.5 epsilon_h) at kappa = 1, gamma = 0:
        # inside the bistable window epsilon ~ 6.97-8.07 epsilon_h, where a
        # short-period stable cycle coexists; the run reaches the long-period one
        with pytest.warns(UserWarning, match="0.2"):
            orbit = collocate(1.0, 0.0, 6.5)
        mu = cycles.floquet_multipliers(orbit)
        assert abs(mu[0] - 1.0) <= 1e-6
        assert np.all(np.abs(mu[1:]) < 1.0)
        assert cycles.closure(orbit) <= 1e-6

    # a second route for the multipliers: the eigenvalues of the monodromy matrix
    @pytest.mark.parametrize("kappa, gamma", FIGURE1_PAIRS)
    def test_hill_multipliers_are_monodromy_eigenvalues(self, near_threshold, kappa, gamma):
        assert_hill_matches_monodromy(near_threshold[(kappa, gamma)])

    def test_far_drive_hill_multipliers_are_monodromy_eigenvalues(self):
        with pytest.warns(UserWarning, match="0.2"):
            orbit = collocate(1.0, 0.0, 6.5)  # N = 255
        assert_hill_matches_monodromy(orbit)


def assert_hill_matches_monodromy(orbit):
    """Each Hill multiplier lies within 1e-10 of an eigenvalue of the monodromy matrix,
    integrated with dPhi/dt = J(x) Phi over one period from the first node by scipy."""
    from scipy.integrate import solve_ivp

    def rhs(t, z):
        x, phi = z[:4], z[4:].reshape(4, 4)
        return np.concatenate([vector_field(x, orbit.params),
                               (jacobian(x, orbit.params) @ phi).ravel()])

    start = np.concatenate([orbit.nodes[0], np.eye(4).ravel()])
    sol = solve_ivp(rhs, (0.0, orbit.period), start, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    monodromy = np.linalg.eigvals(sol.y[4:, -1].reshape(4, 4))
    hill = cycles.floquet_multipliers(orbit)
    gaps = np.min(np.abs(hill[:, None] - monodromy[None, :]), axis=1)
    assert np.all(gaps <= 1e-10), (hill, monodromy)


def test_jacobian_of_batched_states_is_the_vector_fields():
    params = SystemParams(1.0, 0.1, 0.3)
    states = np.random.default_rng(5).normal(size=(3, 2, 4))
    jac = jacobian(states, params)
    assert jac.shape == (3, 2, 4, 4)
    h = 1e-6
    for c in range(4):
        step = np.zeros(4)
        step[c] = h
        column = (vector_field(states + step, params) - vector_field(states - step, params)) / (2 * h)
        assert np.allclose(jac[..., c], column, rtol=0.0, atol=1e-8)
    assert np.array_equal(jac[1, 0], jacobian(states[1, 0], params))


def _refused(capsys, tmp_path, delta_eps="0.0017677669529663688"):
    code = commands.main(["limit-cycle", "--delta-eps", delta_eps, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))
    return err


class TestRefusals:
    def test_mode_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cycles, "MAX_MODES", 15)  # 0.01 epsilon_h needs N = 31
        assert "N may not pass 15" in _refused(capsys, tmp_path)

    def test_newton_failure(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cycles, "MAX_NEWTON_STEPS", 1)  # no step is ever confirmed
        assert "did not converge" in _refused(capsys, tmp_path)

    def test_swing_below_floor(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cycles, "CYCLE_AMPLITUDE_FLOOR", 1.0)
        assert "fixed point" in _refused(capsys, tmp_path)

    def test_newton_on_the_fixed_point(self, capsys, tmp_path, monkeypatch):
        def still(nodes, omega, params):  # Newton landing on a constant orbit, as at the fixed point
            return np.tile(nodes.mean(axis=0), (len(nodes), 1)), omega, 1

        monkeypatch.setattr(cycles, "_newton", still)
        assert "collocated cycle's beta_r swing 0 " in _refused(capsys, tmp_path)

    def test_drive_below_the_floor_refused_at_once(self, capsys, tmp_path):
        # at kappa = 1, gamma = 0 the predicted swing is 3.1e-7 against a floor of
        # 3.5e-7; collocation Newton would stall at every N up to the cap
        start = time.perf_counter()
        err = _refused(capsys, tmp_path, "1e-13")
        assert time.perf_counter() - start < 1.0
        assert "predicted beta_r swing 3.12e-07" in err and "epsilon_h + 1e-13" in err
        assert commands.main(["limit-cycle", "--delta-eps", "2e-13",
                              "--out", str(tmp_path)]) == 0

    def test_fewer_than_two_crossings(self, capsys, tmp_path, monkeypatch):
        def one_crossing(traj, transient_fraction):
            meas = detect_limit_cycle(traj, transient_fraction)
            return dataclasses.replace(meas, crossing_times=meas.crossing_times[:1])

        monkeypatch.setattr(cycles, "detect_limit_cycle", one_crossing)
        assert "1 times" in _refused(capsys, tmp_path)
