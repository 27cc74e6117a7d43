"""Driven third-order parametric optomechanics: semiclassical fixed points,
Hopf bifurcation, center-manifold limit-cycle prediction, linearized quantum
noise spectra and on-cycle phase diffusion.

The names below are loaded on first use (PEP 562), so ``import selfpulse``
costs nothing and a program that uses only the closed forms never imports
numpy.
"""

from importlib import import_module

__version__ = "0.2.6"

#: Each public name, by the module that defines it.
_EXPORTS = {
    "errors": "DomainError NumericalError SelfPulseError ThresholdError",
    "model": """HBAR AtomRealization MembraneRealization SemiclassicalState SystemParams
        coupling_strength effective_coupling lamb_dicke resolved_sideband_check
        steady_cavity_amplitude""",
    "closed_forms": """CMCoefficients FixedPoint HopfPoint PhaseDiffusionConstant StabilityReport
        classify_fixed_point cm_coefficients cm_report fixed_point hopf_eigenvalues
        hopf_frequency hopf_threshold lyapunov_coefficient phase_diffusion_constant
        radial_growth_rate""",
    "semiclassics": """LimitCycleMeasurement Trajectory detect_limit_cycle integrate jacobian
        vector_field""",
    "center_manifold": """LimitCyclePrediction evaluate_manifold predict_limit_cycle
        to_normal_form""",
    "noise": """LinearNoiseModel SpectralPeak SpectrumResult linear_noise_model spectral_peak
        spectrum spectrum_scan""",
    "stochastic": """PhaseDiffusionFit PhaseRecord SDEConfig estimate_psd measure_phase_diffusion
        simulate_limit_cycle_noise simulate_linear_sde stationary_covariance""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
