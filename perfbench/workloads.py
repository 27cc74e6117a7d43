"""The three workloads: their operations, expected outputs and output checks.

An operation is one cold ``python -m selfpulse`` command, or one cold run of
``libstep.py``.  Each check compares an output with an independent
reference (``oracle.py``) at a tolerance taken from the acceptance suite and
returns |value - reference| / tolerance.  Checks whose result depends on the
seed (Monte-Carlo estimates) are marked stochastic; the rest repeat exactly
at any seed and make up ``ref_err_ratio``.

Why these workloads:
- quick: closed forms, the fixed point and four spectrum scans; almost all of
  its time is interpreter and import set-up, so it isolates set-up cost and
  the spectrum layer, and never integrates or simulates an SDE.
- cycles: figure1 plus the four criterion-3 limit cycles; its compute is ODE
  integration and Poincare detection, which quick and phase-noise bypass.
- phase-noise: both Monte-Carlo phase-diffusion modes and a linear-SDE
  ensemble, the stochastic layer used in two different ways.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from stats import error_ratio

FIGURE1_PAIRS = ((1.0, 0.0), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5))


@dataclass(frozen=True)
class Check:
    name: str
    ratio: float
    stochastic: bool = False


@dataclass(frozen=True)
class Op:
    """One operation: CLI argv (``--out``/``--seed`` are appended) or the library step."""

    name: str
    argv: tuple
    check: object
    library: bool = False


def close(name, value, reference, tolerance, stochastic=False) -> Check:
    return Check(name, error_ratio(value, reference, tolerance), stochastic)


def close_rel(name, value, reference, rel, stochastic=False) -> Check:
    return close(name, value, reference, rel * abs(float(reference)), stochastic)


def holds(name, condition) -> Check:
    return Check(name, 0.0 if condition else math.inf)


def epsilon_h_formula(kappa, gamma) -> float:
    return math.sqrt(kappa * (kappa + gamma)) * (kappa + 2.0 * gamma) / (4.0 * math.sqrt(2.0))


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _well_formed_svg(path: Path) -> bool:
    return ET.parse(path).getroot().tag.endswith("svg")


def _spectrum_close(name, omega, values, kappa, gamma, eps, i, j) -> Check:
    A, D = oracle.noise_matrices(kappa, gamma, eps)
    ref = oracle.spectrum(A, D, omega)[:, i, j]
    err = float(np.max(np.abs(values - ref)))
    return Check(name, err / (1e-9 * float(np.max(np.abs(ref)))))


# ---------------------------------------------------------------------------
# quick
# ---------------------------------------------------------------------------

def check_fixed_point(out: Path) -> list:
    doc = _json(out / "fixed_point.json")
    _, b, _, a = oracle.fixed_point(1.0, 0.1, 0.13)
    lead = float(oracle.max_real_eig(1.0, 0.1, 0.13))
    return [
        close_rel("beta_i0", doc["beta_i0"], b, 1e-10),
        close_rel("alpha_i0", doc["alpha_i0"], a, 1e-10),
        close("max_real_part", doc["max_real_part"], lead, 1e-9),
        holds("classification", (doc["classification"] == "stable-focus/node") == (lead < 0)),
    ]


def check_hopf(out: Path) -> list:
    doc = _json(out / "hopf.json")
    eps_h = float(oracle.hopf_threshold(1.0, 0.1))
    ev = np.linalg.eigvals(oracle.jacobian(1.0, 0.1, eps_h))
    reported = np.array([complex(re, im) for re, im in doc["eigenvalues_at_threshold"]])
    ev_err = max(float(np.min(np.abs(ev - z))) for z in reported)
    return [
        close("epsilon_h", doc["epsilon_h"], eps_h, 1e-8),  # criterion 1
        close("omega_h", doc["omega_h"], float(oracle.marginal_frequency(1.0, 0.1, eps_h)),
              1e-10),  # criterion 2
        Check("eigenvalues_at_threshold", ev_err / 1e-8),
        close_rel("a_vs_a_numeric", doc["a"], doc["a_numeric"], 1e-8),
    ]


def check_sweep(out: Path, delta_eps: float) -> list:
    header, rows = _csv(out / "sweep.csv")
    col = {h: rows[:, k] for k, h in enumerate(header)}
    kappa, gamma = col["kappa"], col["gamma"]
    eps_h = oracle.hopf_threshold(kappa, gamma)
    om = oracle.marginal_frequency(kappa, gamma, eps_h)
    checks = [
        holds("rows", len(rows) == 250),
        Check("epsilon_h_bisection", float(np.max(np.abs(col["epsilon_h"] - eps_h) / eps_h)) / 1e-8),
        Check("omega_h_eigen", float(np.max(np.abs(col["omega_h"] - om) / om)) / 1e-8),
    ]
    zero = gamma == 0.0
    k0 = kappa[zero]
    closed = {  # criterion 6: gamma = 0 closed forms, relative 1e-12
        "a": -33.0 * k0 / 68.0,
        "epsilon_h": k0**2 / (4.0 * math.sqrt(2.0)),
        "d": 2.0 * math.sqrt(2.0) / (3.0 * k0),
        "d_phi": 99.0 * k0 / (272.0 * math.sqrt(2.0) * delta_eps),
    }
    for name, ref in closed.items():
        rel = np.abs(col[name][zero] - ref) / np.abs(ref)
        checks.append(Check(f"gamma0_{name}", float(np.max(rel)) / 1e-12))
    return checks


def check_spectrum(out: Path) -> list:
    header, rows = _csv(out / "spectrum.csv")
    col = {h: rows[:, k] for k, h in enumerate(header)}
    summary = _json(out / "spectrum_summary.json")
    A, D = oracle.noise_matrices(1.0, 0.1, 0.13)
    checks = [holds("rows", len(rows) == 2001)]
    for label, (i, j) in (("S33", (2, 2)), ("S11", (0, 0))):
        values = col[f"{label}_re"] + 1j * col[f"{label}_im"]
        checks.append(_spectrum_close(f"{label}_curve", col["omega"], values,
                                      1.0, 0.1, 0.13, i, j))
        checks.append(close_rel(f"{label}_peak", summary["peaks"][label]["omega_peak"],
                                oracle.spectral_peak(A, D, i, j), 0.02))  # criterion 7
    checks.append(close("epsilon_h", summary["epsilon_h"],
                        float(oracle.hopf_threshold(1.0, 0.1)), 1e-8))
    return checks


def check_figure2(out: Path) -> list:
    summary = _json(out / "figure2_summary.json")
    checks = [holds("svg", _well_formed_svg(out / "figure2.svg"))]
    heights = []
    for eps in (0.01, 0.05, 0.13):
        header, rows = _csv(out / f"spectrum_eps{eps:g}.csv")
        col = {h: rows[:, k] for k, h in enumerate(header)}
        values = col["S33_re"] + 1j * col["S33_im"]
        checks.append(_spectrum_close(f"S33_eps{eps:g}", col["omega"], values,
                                      1.0, 0.1, eps, 2, 2))
        heights.append(float(np.max(col["S33_abs"])))
    # criterion 7: the peak grows toward threshold; the two lower drives have
    # no interior peak on the default grid and say so.
    checks.append(holds("heights_increase", heights[0] < heights[1] < heights[2]))
    checks.append(holds("notes", all("note" in summary["peaks"][f"eps={e:g}"]
                                     for e in (0.01, 0.05))))
    A, D = oracle.noise_matrices(1.0, 0.1, 0.13)
    checks.append(close_rel("last_peak", summary["peaks"]["eps=0.13"]["omega_peak"],
                            oracle.spectral_peak(A, D, 2, 2), 0.02))
    eps_h = float(oracle.hopf_threshold(1.0, 0.1))
    checks.append(close("epsilon_h", summary["epsilon_h"], eps_h, 1e-8))
    checks.append(close("omega_h", summary["omega_h"],
                        float(oracle.marginal_frequency(1.0, 0.1, eps_h)), 1e-10))
    return checks


SWEEP_DELTA_EPS = 0.01

QUICK = (
    Op("fixed-point", ("fixed-point", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13"),
       check_fixed_point),
    Op("hopf", ("hopf", "--kappa", "1", "--gamma", "0.1"), check_hopf),
    Op("sweep", ("sweep", "--kappa-grid", "0.1:10:50", "--gamma-grid", "0:1:5",
                 "--quantities", "epsilon_h,omega_h,d,a,d_phi",
                 "--delta-eps", repr(SWEEP_DELTA_EPS)),
       lambda out: check_sweep(out, SWEEP_DELTA_EPS)),
    Op("spectrum", ("spectrum", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13",
                    "--elements", "33,11"), check_spectrum),
    Op("figure2", ("figure2",), check_figure2),
)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def check_figure1(out: Path) -> list:
    manifest = _json(out / "figure1_manifest.json")
    checks = [holds("outputs", len(manifest["outputs"]) == 29
                    and all((out / name).is_file() for name in manifest["outputs"]))]
    rows = _json(out / "figure1_summary.json")
    for idx, (kappa, gamma) in enumerate(FIGURE1_PAIRS):
        checks.append(holds(f"svg{idx}", _well_formed_svg(out / f"figure1_panel{idx}.svg")))
        eps_h = float(oracle.hopf_threshold(kappa, gamma))
        period_h = 2.0 * math.pi / float(oracle.marginal_frequency(kappa, gamma, eps_h))
        for q, row in enumerate(r for r in rows if r["panel"] == idx):
            tag = f"panel{idx}_deps{q}"
            # criterion 3 tolerance on the mean radial gap to sqrt(d*deps/|a|)
            checks.append(Check(f"{tag}_amplitude", row["mean_radial_gap_over_A"] / 0.10))
            # criterion 4 tolerance, against the period of the orbit through the
            # last written state, located by an independent integration
            _, states = _csv(out / f"figure1_panel{idx}_deps{q}_numerical.csv")
            ref = oracle.orbit_period(states[-1, 1:], kappa, gamma, eps_h + row["delta_eps"],
                                      3.0 * period_h)
            checks.append(close_rel(f"{tag}_period", row["period"], ref, 0.02))
    return checks


def check_limit_cycle(out: Path, kappa, gamma, delta_eps) -> list:
    doc = _json(out / "limit_cycle.json")
    meas, pred = doc["measured"], doc["predicted"]
    eps_h = float(oracle.hopf_threshold(kappa, gamma))
    omega_h = float(oracle.marginal_frequency(kappa, gamma, eps_h))
    _, traj = _csv(out / "limit_cycle_trajectory.csv")
    checks = [
        holds("converged", meas["converged"] is True),
        holds("trajectory_rows", len(traj) == 9000),
        # criterion 3: normal-form amplitude within 10% of the prediction
        close_rel("amplitude", meas["normal_form_amplitude"], pred["amplitude_A"], 0.10),
        # criterion 4: Poincare period within 2% of 2 pi / omega_h
        close_rel("period", meas["period"], 2.0 * math.pi / omega_h, 0.02),
    ]
    if gamma == 0.0:  # criterion 6 closed form for the amplitude
        alt = math.sqrt(136.0 * math.sqrt(2.0) * delta_eps / 99.0) / kappa
        checks.append(close_rel("amplitude_closed_form", pred["amplitude_A"], alt, 1e-12))
    return checks


def _limit_cycle_op(kappa, gamma) -> Op:
    delta_eps = 0.01 * epsilon_h_formula(kappa, gamma)
    return Op(f"limit-cycle-k{kappa:g}-g{gamma:g}",
              ("limit-cycle", "--kappa", repr(kappa), "--gamma", repr(gamma),
               "--delta-eps", repr(delta_eps), "--t-periods", "150"),
              lambda out: check_limit_cycle(out, kappa, gamma, delta_eps))


CYCLES = (Op("figure1", ("figure1", "--jobs", "1"), check_figure1),) + tuple(
    _limit_cycle_op(k, g) for k, g in FIGURE1_PAIRS)


# ---------------------------------------------------------------------------
# phase-noise
# ---------------------------------------------------------------------------

PHASE_DELTA_EPS = 0.05


def check_phase_diffusion(out: Path, mode: str) -> list:
    doc = _json(out / "phase_diffusion.json")
    ref = 99.0 / (272.0 * math.sqrt(2.0) * PHASE_DELTA_EPS)  # kappa = 1
    header, rows = _csv(out / "phase_variance.csv")
    checks = [
        close_rel("analytic_closed_form", doc["analytic"]["value"], ref, 1e-12),
        holds("members", doc["n_members"] == 500 and doc["excluded"] == 0),
        holds("variance_csv", header == ["t", "var_phi", "n_effective"]
              and len(rows) > 1 and bool(np.all(np.isfinite(rows)))),
    ]
    d_hat = doc["d_phi_hat_physical"]
    if mode == "reduced":  # criterion 9 tolerance
        checks.append(close_rel("d_phi", d_hat, ref, 0.20, stochastic=True))
    else:
        # The full flow carries a finite-delta_eps enhancement over the
        # asymptotic constant (the package's own tests bound it by 45%); the
        # Monte-Carlo error adds 3 bootstrap standard errors on top.
        tol = 0.45 * ref + 3.0 * doc["stderr_physical"]
        checks.append(close("d_phi", d_hat, ref, tol, stochastic=True))
    return checks


def check_linear_sde(out: Path) -> list:
    doc = _json(out / "linear_sde.json")
    A, D = oracle.noise_matrices(1.0, 0.1, 0.13)
    cov_ref = oracle.continuous_covariance(A, D)
    prog_cov = np.array(doc["stationary_covariance"])
    header, spec = _csv(out / "linear_sde_spectrum.csv")
    col = {h: spec[:, k] for k, h in enumerate(header)}
    checks = [
        Check("stationary_covariance",
              float(np.linalg.norm(prog_cov - cov_ref) / np.linalg.norm(cov_ref)) / 1e-9),
        _spectrum_close("spectrum_scan", col["omega"], col["S33_re"] + 1j * col["S33_im"],
                        1.0, 0.1, 0.13, 2, 2),
        close_rel("spectral_peak", doc["spectral_peak"]["omega_peak"],
                  oracle.spectral_peak(A, D, 2, 2), 0.02),
    ]
    # Monte-Carlo checks against the exact targets of the Euler-Maruyama chain
    # at this dt (see oracle.euler_covariance), at the criterion-8 tolerances.
    dt = doc["dt"]
    emp = np.array(doc["covariance"])
    em_cov = oracle.euler_covariance(A, D, dt)
    checks.append(Check("covariance",
                        float(np.linalg.norm(emp - em_cov) / np.linalg.norm(em_cov)) / 0.05,
                        stochastic=True))
    _, psd = _csv(out / "linear_sde_psd.csv")
    omega, est = psd[:, 0], psd[:, 1]
    near = np.flatnonzero((omega > 0.1) & (omega < 1.0))
    expected = oracle.euler_periodogram(A, D, dt, doc["n_steps"], 2, omega[near])
    band = expected >= 0.25 * expected.max()  # the peak: bins above a quarter of its height
    checks.append(close_rel("periodogram_peak_band", float(np.mean(est[near][band])),
                            float(np.mean(expected[band])), 0.10, stochastic=True))
    return checks


PHASE_NOISE = (
    Op("phase-diffusion-reduced",
       ("phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", repr(PHASE_DELTA_EPS),
        "--mode", "reduced"), lambda out: check_phase_diffusion(out, "reduced")),
    Op("phase-diffusion-full",
       ("phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", repr(PHASE_DELTA_EPS),
        "--mode", "full"), lambda out: check_phase_diffusion(out, "full")),
    Op("linear-sde", (), check_linear_sde, library=True),
)

WORKLOADS = {"quick": QUICK, "cycles": CYCLES, "phase-noise": PHASE_NOISE}
