import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from selfpulse import (
    HBAR,
    AtomRealization,
    DomainError,
    MembraneRealization,
    SemiclassicalState,
    SystemParams,
    coupling_strength,
    effective_coupling,
    integrate,
    lamb_dicke,
    resolved_sideband_check,
    steady_cavity_amplitude,
)


class TestLambDicke:
    def test_unit_radicand(self):
        assert lamb_dicke(1.0, HBAR / 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_k_doubles_half_radicand(self):
        # radicand 1/4, k doubles it back to 1
        assert lamb_dicke(2.0, 2.0 * HBAR, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_physical_values(self):
        # direct evaluation of the closed form with the module constant
        k, m, nu = 8.05e6, 2.2e-25, 1e5
        expected = k * math.sqrt(HBAR / (2.0 * m * nu))
        assert lamb_dicke(k, m, nu) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.3941063, rel=1e-5)

    @pytest.mark.parametrize("mass,nu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, mass, nu):
        with pytest.raises(DomainError):
            lamb_dicke(1.0, mass, nu)


class TestCouplingStrength:
    def _atom(self, k_wave, g, Delta):
        return AtomRealization(g=g, Delta=Delta, nu=1.0, mass=HBAR / 2.0,
                               k_wave=k_wave, epsilon_c=1.0, delta=0.0)

    def test_atom_value(self):
        # eta = 0.1 by construction, G = eta^2 g^2 / Delta
        r = self._atom(k_wave=0.1, g=10.0, Delta=100.0)
        assert coupling_strength(r) == pytest.approx(0.01, rel=1e-12)

    def test_zero_lamb_dicke(self):
        r = self._atom(k_wave=0.0, g=123.0, Delta=7.0)
        assert coupling_strength(r) == 0.0

    def test_membrane_flat_extremum(self):
        r = MembraneRealization(mass=1e-12, nu=1e6, curvature=0.0, epsilon_c=1.0, delta=0.0)
        assert coupling_strength(r) == 0.0

    def test_membrane_value(self):
        r = MembraneRealization(mass=2.0, nu=3.0, curvature=5.0, epsilon_c=0.0, delta=0.0)
        assert coupling_strength(r) == pytest.approx(HBAR / (4.0 * 3.0 * 2.0) * 5.0, rel=1e-14)

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError):
            self._atom(k_wave=0.1, g=1.0, Delta=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        atom = dict(g=10.0, Delta=100.0, nu=1.0, mass=HBAR / 2.0, k_wave=0.1,
                    epsilon_c=1.0, delta=0.0)
        membrane = dict(mass=2.0, nu=3.0, curvature=5.0, epsilon_c=1.0, delta=0.0)
        for cls, good in ((AtomRealization, atom), (MembraneRealization, membrane)):
            for name in good:
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    cls(**{**good, name: bad})
            with pytest.raises(DomainError, match="epsilon_c must be finite"):
                cls(**{**good, "epsilon_c": complex(1.0, bad)})


class TestSteadyCavityAmplitude:
    def test_no_drive(self):
        assert steady_cavity_amplitude(0.0, 2.0, 0.5) == 0.0

    def test_resonant(self):
        assert steady_cavity_amplitude(1.0, 2.0, 0.0) == pytest.approx(-1j, rel=1e-15)

    def test_complex_division(self):
        assert steady_cavity_amplitude(1j, 2.0, 1.0) == pytest.approx(0.5 + 0.5j, rel=1e-15)

    def test_magnitude_identity_and_monotonicity(self):
        eps_c = 0.7 + 0.3j
        kappa = 1.3
        mags = []
        for delta in np.linspace(0.0, 5.0, 21):
            ab = steady_cavity_amplitude(eps_c, kappa, delta)
            expected = abs(eps_c) ** 2 / (kappa**2 / 4.0 + delta**2)
            assert abs(ab) ** 2 == pytest.approx(expected, rel=1e-12)
            mags.append(abs(ab))
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    def test_kappa_must_be_positive(self):
        with pytest.raises(DomainError):
            steady_cavity_amplitude(1.0, 0.0, 0.0)


class TestEffectiveCoupling:
    def test_product(self):
        assert effective_coupling(0.01, 100.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero(self):
        assert effective_coupling(0.0, 42.0) == 0.0

    def test_phase_absorbed(self):
        assert effective_coupling(0.5, 2.0 * np.exp(1j * 0.7)) == pytest.approx(1.0, rel=1e-12)


class TestRescale:
    def test_trajectory_equivalence(self):
        # the scaled model at (kappa, gamma, epsilon)/chi, integrated over chi*t,
        # matches the chi != 1 flow at time t
        chi, kappa, gamma, epsilon = 2.0, 2.0, 0.2, 0.4
        q = SystemParams(kappa=kappa / chi, gamma=gamma / chi, epsilon=epsilon / chi)
        y0 = [0.1, -0.2, 0.05, 0.0]
        t_phys = np.linspace(0.0, 5.0, 11)

        def rhs(t, y):
            br, bi, ar, ai = y
            return [
                chi * 2.0 * (bi * ar - br * ai) - gamma / 2.0 * br,
                chi * 2.0 * (br * ar + bi * ai) - gamma / 2.0 * bi - epsilon,
                chi * (-2.0 * br * bi) - kappa / 2.0 * ar,
                chi * (br**2 - bi**2) - kappa / 2.0 * ai,
            ]

        ref = solve_ivp(rhs, (0.0, 5.0), y0, rtol=1e-11, atol=1e-13, t_eval=t_phys)
        traj = integrate(y0, q, (0.0, 5.0 * chi), rel_tol=1e-11, abs_tol=1e-13,
                         n_samples=len(t_phys))
        assert np.allclose(traj.y, ref.y.T, atol=1e-7)


class TestResolvedSideband:
    def test_thompson_scale(self):
        chk = resolved_sideband_check(8e5, 1e5)
        assert chk.resolved and chk.margin == pytest.approx(16.0)

    def test_boundary_not_resolved(self):
        chk = resolved_sideband_check(0.5, 1.0)
        assert not chk.resolved and chk.margin == pytest.approx(1.0)

    def test_marginally_resolved(self):
        chk = resolved_sideband_check(1.0, 1.0)
        assert chk.resolved and chk.margin == pytest.approx(2.0)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SystemParams(kappa=-1.0, gamma=0.0, epsilon=0.0)
        with pytest.raises(DomainError):
            SystemParams(kappa=1.0, gamma=-0.1, epsilon=0.0)
        for name in ("kappa", "gamma", "epsilon"):
            for bad in (math.nan, math.inf, -math.inf):
                kwargs = {"kappa": 1.0, "gamma": 0.0, "epsilon": 0.0, name: bad}
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    SystemParams(**kwargs)
        # kappa = 0 admitted for the undamped conservation flow
        SystemParams(kappa=0.0, gamma=0.0, epsilon=0.0)


class TestStateVector:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    def test_round_trip(self, vec):
        s = SemiclassicalState(alpha=complex(vec[2], vec[3]), beta=complex(vec[0], vec[1]))
        assert np.array_equal(s.to_vector(), np.asarray(vec))

    def test_component_map(self):
        s = SemiclassicalState(alpha=0.3 - 0.7j, beta=-1.0 + 2.0j)
        assert s.to_vector().tolist() == [-1.0, 2.0, 0.3, -0.7]


class TestParamsLoading:
    """A realization reaches SystemParams only through its effective coupling chi."""

    def test_realizations_with_equal_chi_give_equal_params(self):
        # model equivalence: agreeing G*|alpha_bar| implies the same scaled rates
        kappa, delta = 1.0, 0.0
        atom = AtomRealization(g=10.0, Delta=100.0, nu=1.0, mass=HBAR / 2.0,
                               k_wave=0.1, epsilon_c=50j, delta=delta)
        G_atom = coupling_strength(atom)
        ab = steady_cavity_amplitude(atom.epsilon_c, kappa, delta)
        # tune the membrane curvature so G matches the atom's
        nu_m, mass_m = 2.0, 3.0
        curvature = G_atom * 4.0 * nu_m * mass_m / HBAR
        mem = MembraneRealization(mass=mass_m, nu=nu_m, curvature=curvature,
                                  epsilon_c=atom.epsilon_c, delta=delta)
        assert coupling_strength(mem) == pytest.approx(G_atom, rel=1e-12)
        chi_a = effective_coupling(G_atom, ab)
        chi_m = effective_coupling(coupling_strength(mem), ab)
        pa = SystemParams(kappa=kappa / chi_a, gamma=0.1 / chi_a, epsilon=0.13 / chi_a)
        pm = SystemParams(kappa=kappa / chi_m, gamma=0.1 / chi_m, epsilon=0.13 / chi_m)
        assert pa == pm
