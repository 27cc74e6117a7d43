"""Driven third-order parametric optomechanics: semiclassical fixed points,
Hopf bifurcation, center-manifold limit-cycle prediction, linearized quantum
noise spectra and on-cycle phase diffusion."""

__version__ = "0.2.3"

from .errors import DomainError, NumericalError, SelfPulseError, ThresholdError
from .model import (
    HBAR,
    AtomRealization,
    MembraneRealization,
    SemiclassicalState,
    SystemParams,
    coupling_strength,
    effective_coupling,
    lamb_dicke,
    resolved_sideband_check,
    steady_cavity_amplitude,
)
from .semiclassics import (
    FixedPoint,
    HopfPoint,
    LimitCycleMeasurement,
    StabilityReport,
    Trajectory,
    classify_fixed_point,
    detect_limit_cycle,
    fixed_point,
    hopf_eigenvalues,
    hopf_frequency,
    hopf_threshold,
    integrate,
    jacobian,
    vector_field,
)
from .center_manifold import (
    CMCoefficients,
    LimitCyclePrediction,
    cm_coefficients,
    cm_report,
    evaluate_manifold,
    lyapunov_coefficient,
    normal_form_transform,
    predict_limit_cycle,
    radial_growth_rate,
    to_normal_form,
)
from .noise import (
    LinearNoiseModel,
    PhaseDiffusionConstant,
    SpectralPeak,
    SpectrumResult,
    linear_noise_model,
    phase_diffusion_constant,
    spectral_peak,
    spectrum,
    spectrum_scan,
)
from .stochastic import (
    PhaseDiffusionFit,
    PhaseRecord,
    SDEConfig,
    estimate_psd,
    measure_phase_diffusion,
    simulate_limit_cycle_noise,
    simulate_linear_sde,
    stationary_covariance,
)
