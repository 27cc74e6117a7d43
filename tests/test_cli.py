import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selfpulse import __version__, cli

CLI = [sys.executable, "-m", "selfpulse"]


def run_cli(args, cwd=None, env=None, timeout=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd, env=e,
                          timeout=timeout)


def outputs_of(manifest_path):
    doc = json.loads(manifest_path.read_text())
    return doc["outputs"]


def with_config_files(args, tmp_path):
    """Replace each dict in ``args`` by the path of a JSON file holding it."""
    filled = []
    for i, arg in enumerate(args):
        if isinstance(arg, dict):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        filled.append(arg)
    return filled


class TestExitCodes:
    def test_success(self, tmp_path):
        r = run_cli(["fixed-point", "--kappa", "1", "--gamma", "0.1",
                     "--epsilon", "0.13", "--out", str(tmp_path)])
        assert r.returncode == 0

    @pytest.mark.parametrize("args", [
        ["fixed-point", "--kappa", "0"],
        ["fixed-point", "--gamma", "-1"],
        ["limit-cycle", "--delta-eps", "-0.1"],
        ["limit-cycle"],  # delta-eps required
        ["phase-diffusion", "--delta-eps", "0"],
        ["sweep", "--kappa-grid", "1:2:0", "--gamma-grid", "0:0:1"],
        ["sweep"],  # grids required
        ["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:0:1",
         "--quantities", "nonsense"],
        ["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:0:1",
         "--quantities", "d_phi"],  # d_phi without delta-eps
        ["figure1", "--delta-eps-fracs", ""],
        ["figure2", "--eps-list", ""],
        ["spectrum", "--elements", "99"],
        ["no-such-command"],
        ["sweep", "--kappa-grid", "a:2:3", "--gamma-grid", "0:0:1"],
        ["fixed-point", "--epsilon", "nan"],
        ["fixed-point", "--config", {"kappa": "x"}],
        ["spectrum", "--config", {"elements": ["33"]}],
        ["fixed-point", "--config", {"kapa": 2.0}],  # unknown key
        ["simulate", "--n-samples", "0"],
        ["simulate", "--n-samples", "-1"],
        ["fixed-point", "--jobs", "1"],  # --jobs is a figure1 flag
        ["simulate", "--format", "json"],  # simulate echoes no report
        ["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:0:1", "--jobs", "2"],
        ["phase-diffusion", "--delta-eps", "0.05", "--radial-noise"],  # not a CLI switch
        ["sweep", "--kappa-grid", "1:2:2", "--gamma-grid=-3:-2:2", "--quantities", "omega_h"],
        ["simulate", "--chi", "2"],  # chi is the time unit, not an option
        ["phase-diffusion", "--delta-eps", "0.05", "--t-final", "-5"],
        ["phase-diffusion", "--delta-eps", "0.05", "--dt", "-1"],
        ["phase-diffusion", "--delta-eps", "0.05", "--burn-in", "-1"],
        ["phase-diffusion", "--delta-eps", "0.05", "--noise-scale", "-1"],
        ["limit-cycle", "--delta-eps", "0.01", "--t-periods", "-5"],
        ["figure1", "--t-periods", "0"],
        ["hopf", "--seed", "-1"],
        ["hopf", "--seed", str(2**64)],
    ])
    def test_usage_errors_exit_1(self, args, tmp_path):
        args = with_config_files(args, tmp_path)
        r = run_cli(args + ["--out", str(tmp_path)] if args[0] != "no-such-command" else args)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("optimize", ["", "1"])
    def test_overflowing_fixed_point_cubic_exits_2(self, optimize, tmp_path):
        r = run_cli(["fixed-point", "--kappa", "1e308", "--epsilon", "1e308",
                     "--out", str(tmp_path)], env={"PYTHONOPTIMIZE": optimize})
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr

    @pytest.mark.parametrize("args, named", [
        (["hopf", "--kappa", "1e300"], ("epsilon_h", "kappa=1e+300")),  # overflows
        (["hopf", "--kappa", "1e-300"], ("epsilon_h", "kappa=1e-300")),  # underflows to 0
        (["limit-cycle", "--delta-eps", "0.01", "--t-periods", "1e9"],  # above MAX_SAMPLES
         ("n_samples",)),
        # epsilon_h and omega_h underflow to 0 instead of dividing by it
        (["sweep", "--kappa-grid", "1e-300:1e-300:1", "--gamma-grid", "0:0:1",
          "--quantities", "epsilon_h,omega_h"], ("kappa=1e-300",)),
        # epsilon_h = kappa^2/(4 sqrt 2) just past either end of the normal floats:
        # subnormal at 1e-160 and 1e-161, inf at 1e160
        (["hopf", "--kappa", "1e-160"], ("epsilon_h", "kappa=1e-160, gamma=0")),
        (["hopf", "--kappa", "1e160"], ("epsilon_h", "kappa=1e+160, gamma=0")),
        (["sweep", "--kappa-grid", "1e-161:1e-161:1", "--gamma-grid", "0:0:1",
          "--quantities", "epsilon_h"], ("epsilon_h", "kappa=1e-161, gamma=0")),
        # the vector field overflows at the first step: the time reached is 0
        (["simulate", "--beta0", "1e200", "--t-final", "1"], ("t=0:",)),
        (["simulate", "--epsilon", "1e300", "--t-final", "10"], ("t=0:",)),
        # below 100 machine epsilons, refused rather than raised in silence
        (["simulate", "--rel-tol", "1e-15", "--t-final", "1"], ("rel_tol",)),
        # x^3 of the cubic's bracket end overflows
        (["fixed-point", "--kappa", "1e150", "--gamma", "1e149", "--epsilon", "1.3e299"],
         ("kappa=1e+150", "gamma=1e+149", "epsilon=1.3e+299")),
        # ~1e13 member-steps or more, refused by SDEConfig before anything is allocated
        (["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
          "--dt", "1e-9"], ("n_ensemble", "n_steps", "burn_in")),
        (["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
          "--n-ensemble", "100000000000"], ("n_ensemble", "n_steps", "burn_in")),
        (["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
          "--burn-in", "1e9"], ("n_ensemble", "n_steps", "burn_in")),
        # the step count t_final/dt overflows to inf before SDEConfig sees it
        (["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
          "--t-final", "1e308", "--dt", "1e-10"], ("--t-final", "--dt")),
    ], ids=["overflow", "underflow", "samples", "sweep_underflow", "epsilon_h_subnormal",
            "epsilon_h_overflow", "sweep_epsilon_h_subnormal", "simulate_state_overflow",
            "simulate_drive_overflow", "rel_tol_below_floor", "fixed_point_cubic_overflow",
            "ensemble_dt", "ensemble_n_ensemble", "ensemble_burn_in", "ensemble_step_overflow"])
    def test_arithmetic_and_sample_limits_exit_2(self, args, named, tmp_path):
        r = run_cli(args + ["--out", str(tmp_path)])
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        for part in named:  # the message names the input to change
            assert part in r.stderr

    # a polynomial in kappa and gamma overflowed here (kappa^6 in a's
    # denominator) and the runs exited 2; a ~ -33 kappa/68 is representable
    @pytest.mark.parametrize("args", [
        ["hopf", "--kappa", "1e60"],
        ["hopf", "--kappa", "1e100"],
        ["sweep", "--kappa-grid", "1e100:1e100:1", "--gamma-grid", "0:0:1", "--quantities", "a"],
    ], ids=["hopf_1e60", "hopf_1e100", "sweep_1e100"])
    def test_representable_a_exits_0(self, args, tmp_path):
        r = run_cli(args + ["--out", str(tmp_path)])
        assert r.returncode == 0 and r.stderr == ""
        if args[0] == "hopf":
            doc = json.loads((tmp_path / "hopf.json").read_text())
            assert doc["a_numeric"] == pytest.approx(doc["a"], rel=1e-12)
        else:
            doc = dict(zip(*csv.reader((tmp_path / "sweep.csv").open())))
        assert float(doc["a"]) / float(doc["kappa"]) == pytest.approx(-33.0 / 68.0, rel=1e-15)

    def test_sweep_keeps_digits_at_tiny_kappa(self, tmp_path):
        # omega_h, d and a are normal floats at kappa = 1e-161 and exact to
        # rounding; epsilon_h is subnormal there and refused (exit 2 above)
        r = run_cli(["sweep", "--kappa-grid", "1e-161:1e-161:1", "--gamma-grid", "0:0:1",
                     "--quantities", "omega_h,d,a", "--out", str(tmp_path)])
        assert r.returncode == 0 and r.stderr == ""
        row = {k: float(v) for k, v in zip(*csv.reader((tmp_path / "sweep.csv").open()))}
        kappa = row["kappa"]
        assert row["omega_h"] == pytest.approx(kappa / 2.0, rel=1e-15)
        assert row["d"] == pytest.approx(2.0 * math.sqrt(2.0) / (3.0 * kappa), rel=1e-15)
        assert row["a"] == pytest.approx(-33.0 * kappa / 68.0, rel=1e-15)

    def test_numerical_failure_exits_2(self, tmp_path):
        r = run_cli(["figure2", "--eps-list", "0.01,0.3", "--out", str(tmp_path)])
        assert r.returncode == 2
        assert "0.222486" in r.stderr  # message names the threshold

    def test_spectrum_beyond_threshold_exits_2(self, tmp_path):
        r = run_cli(["spectrum", "--kappa", "1", "--gamma", "0.1",
                     "--epsilon", "0.5", "--out", str(tmp_path)])
        assert r.returncode == 2


class TestFixedPointCommand:
    def test_reference_output(self, tmp_path):
        r = run_cli(["fixed-point", "--kappa", "1", "--gamma", "0.1",
                     "--epsilon", "0.13", "--out", str(tmp_path)])
        assert r.returncode == 0
        doc = json.loads((tmp_path / "fixed_point.json").read_text())
        assert doc["beta_i0"] == pytest.approx(-0.30608, abs=1e-5)
        assert doc["classification"] == "stable-focus/node"

    def test_zero_drive_is_stable_origin(self, tmp_path):
        r = run_cli(["fixed-point", "--kappa", "1", "--gamma", "0.1",
                     "--epsilon", "0", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "fixed_point.json").read_text())
        assert doc["beta_i0"] == 0.0 and doc["alpha_i0"] == 0.0
        assert doc["classification"] == "stable-focus/node"

    def test_manifest_written(self, tmp_path):
        run_cli(["fixed-point", "--epsilon", "0.1", "--out", str(tmp_path)])
        man = json.loads((tmp_path / "fixed_point_manifest.json").read_text())
        assert man["command"] == "fixed-point"
        assert man["outputs"] == ["fixed_point.json"]
        assert "wall_time_s" in man and "seed" in man


class TestSimulateCommand:
    def test_trajectory_csv(self, tmp_path):
        r = run_cli(["simulate", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.1",
                     "--beta0", "0.4j", "--alpha0", "0.3", "--t-final", "10",
                     "--n-samples", "50", "--out", str(tmp_path)])
        assert r.returncode == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,beta_r,beta_i,alpha_r,alpha_i"
        assert len(lines) == 51
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.4, 0.3, 0.0]

    def test_unbounded_run_exits_2_within_step_budget(self, tmp_path):
        r = run_cli(["simulate", "--t-final", "1e9", "--out", str(tmp_path)], timeout=120)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [r.stderr.strip()]
        assert "integration stopped after" in r.stderr
        assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("args, manifest, integrator", [
    (["simulate", "--t-final", "1", "--n-samples", "5"], "simulate_manifest.json", "DOP853"),
    (["limit-cycle", "--delta-eps", "0.002", "--t-periods", "30"],
     "limit_cycle_manifest.json", "DOP853"),
    (["figure1", "--pairs", "1.0,0.0", "--delta-eps-fracs", "0"],
     "figure1_manifest.json", "DOP853"),
    (["fixed-point"], "fixed_point_manifest.json", None),
], ids=["simulate", "limit-cycle", "figure1", "fixed-point"])
def test_manifest_names_the_integrator(tmp_path, args, manifest, integrator):
    from selfpulse.cli import main

    assert main(args + ["--out", str(tmp_path)]) == 0
    man = json.loads((tmp_path / manifest).read_text())
    assert man.get("integrator") == integrator


@pytest.mark.parametrize("args", [
    ["fixed-point"],
    ["simulate", "--t-final", "1", "--n-samples", "5"],
    ["hopf"],
    ["limit-cycle", "--delta-eps", "0.002", "--t-periods", "30"],
    ["spectrum", "--elements", "33,11", "--n-points", "101"],
    ["phase-diffusion", "--delta-eps", "0.05", "--n-ensemble", "100", "--t-final", "10"],
    ["figure1", "--pairs", "1.0,0.1", "--delta-eps-fracs", "0,0.05", "--t-periods", "30"],
    ["figure1", "--pairs", "1.0,0.1", "--delta-eps-fracs", "0", "--gnuplot"],
    ["figure2", "--n-points", "101"],
    ["figure2", "--n-points", "101", "--gnuplot"],
    ["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:1:2"],
], ids=lambda args: args[0] + ("-gnuplot" if "--gnuplot" in args else ""))
def test_manifest_lists_exactly_the_files_written(tmp_path, args):
    assert cli.main(args + ["--out", str(tmp_path)]) == 0
    manifest = args[0].replace("-", "_") + "_manifest.json"
    outputs = outputs_of(tmp_path / manifest)
    assert len(set(outputs)) == len(outputs)
    assert sorted(outputs) == sorted(p.name for p in tmp_path.iterdir() if p.name != manifest)


class TestSpectrumCommand:
    def test_csv_and_summary(self, tmp_path):
        r = run_cli(["spectrum", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13",
                     "--omega-min", "-1", "--omega-max", "1", "--n-points", "201",
                     "--elements", "33,12", "--out", str(tmp_path)])
        assert r.returncode == 0
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header.startswith("omega,S33_re,S33_im,S33_abs")
        assert "S12_re" in header
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert "S33" in summary["peaks"]


class TestFigure2Command:
    def test_default_run(self, tmp_path):
        r = run_cli(["figure2", "--n-points", "801", "--out", str(tmp_path)])
        assert r.returncode == 0
        heights = []
        for eps in ("0.01", "0.05", "0.13"):
            data = np.loadtxt(tmp_path / f"spectrum_eps{eps}.csv", delimiter=",",
                              skiprows=1)
            assert np.all(np.isfinite(data))
            heights.append(data[:, 3].max())
        assert heights[0] < heights[1] < heights[2]
        assert (tmp_path / "figure2.svg").exists()

    def test_single_epsilon(self, tmp_path):
        r = run_cli(["figure2", "--eps-list", "0.01", "--n-points", "101",
                     "--out", str(tmp_path)])
        assert r.returncode == 0
        data = np.loadtxt(tmp_path / "spectrum_eps0.01.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data))


class TestFigure1Command:
    def test_panels_and_overlap(self, tmp_path):
        r = run_cli(["figure1", "--t-periods", "60", "--delta-eps-fracs", "0.05,0.2",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        svgs = sorted(tmp_path.glob("figure1_panel*.svg"))
        assert len(svgs) == 4  # one per parameter pair
        summary = json.loads((tmp_path / "figure1_summary.json").read_text())
        assert len(summary) == 8
        for row in summary:
            if row["delta_eps"] == min(r2["delta_eps"] for r2 in summary
                                       if r2["panel"] == row["panel"]):
                assert row["mean_radial_gap_over_A"] <= 0.10
        # t runs over one predicted period, 2 pi / omega_h = 4 pi at kappa=1, gamma=0
        pred = np.loadtxt(tmp_path / "figure1_panel0_deps0_predicted.csv",
                          delimiter=",", skiprows=1)
        assert np.array_equal(pred[:, 0], np.linspace(0.0, 4.0 * math.pi, 241))

    def test_jobs_parallel_matches_serial(self, tmp_path):
        # two panels, so --jobs 2 runs them in two worker processes
        args = ["figure1", "--pairs", "1.0,0.1;0.5,0.5", "--delta-eps-fracs", "0.05",
                "--t-periods", "30"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for jobs, out in (("1", serial), ("2", parallel)):
            r = run_cli(args + ["--jobs", jobs, "--out", str(out)])
            assert r.returncode == 0, r.stderr
        names = outputs_of(serial / "figure1_manifest.json")
        assert names == outputs_of(parallel / "figure1_manifest.json")
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    def test_zero_delta_eps_degenerates_to_marker(self, tmp_path):
        r = run_cli(["figure1", "--pairs", "1.0,0.0", "--delta-eps-fracs", "0",
                     "--out", str(tmp_path)])
        assert r.returncode == 0
        pred = np.loadtxt(tmp_path / "figure1_panel0_deps0_predicted.csv",
                          delimiter=",", skiprows=1)
        assert pred.ndim == 1  # a single marker row
        assert pred[0] == 0.0 and pred[1] == 0.0  # at t = 0, beta_r of the critical point

    def test_manifest_parameters_take_the_option_names(self, tmp_path):
        r = run_cli(["figure1", "--pairs", "1.0,0.0", "--delta-eps-fracs", "0",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        man = json.loads((tmp_path / "figure1_manifest.json").read_text())
        assert set(man["parameters"]) == {opt.name for opt in cli._options("figure1")}


class TestSweepCommand:
    def test_closed_forms_at_gamma_zero(self, tmp_path):
        r = run_cli(["sweep", "--kappa-grid", "0.1:10:7", "--gamma-grid", "0:0:1",
                     "--quantities", "epsilon_h,a", "--out", str(tmp_path)])
        assert r.returncode == 0
        data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
        kappa = data[:, 0]
        assert np.allclose(data[:, 2], kappa**2 / (4.0 * math.sqrt(2.0)), rtol=1e-12)
        assert np.allclose(data[:, 3], -33.0 * kappa / 68.0, rtol=1e-12)

    def test_row_major_deterministic_order(self, tmp_path):
        run_cli(["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:0.5:3",
                 "--quantities", "omega_h", "--out", str(tmp_path)])
        data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], [1, 1, 1, 2, 2, 2])
        assert np.allclose(data[:, 1], [0, 0.25, 0.5, 0, 0.25, 0.5])

    def test_one_stderr_line_per_warning(self, tmp_path):
        # gamma > 0.1 kappa at 123 of the 250 points makes d_phi warn at each.
        r = run_cli(["sweep", "--kappa-grid", "0.1:10:50", "--gamma-grid", "0:1:5",
                     "--quantities", "epsilon_h,omega_h,d,a,d_phi", "--delta-eps", "0.01",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines() == [
            "selfpulse sweep: UserWarning at 123 of 250 points, first: gamma=0.25 is not "
            "small against kappa=0.1; the phase-diffusion constant is derived in the "
            "kappa >> gamma regime"]

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_warning_filters_still_apply(self, tmp_path, action):
        # gamma=1 > 0.1 kappa at two of the four points.
        r = run_cli(["sweep", "--kappa-grid", "1:2:2", "--gamma-grid", "0:1:2",
                     "--quantities", "d_phi", "--delta-eps", "0.01", "--out", str(tmp_path)],
                    env={"PYTHONWARNINGS": action})
        if action == "error":
            assert r.returncode != 0
            assert "UserWarning: gamma=1" in r.stderr
        else:
            assert r.returncode == 0, r.stderr
            assert r.stderr == ""


class TestPhaseDiffusionCommand:
    def test_seeded_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        args = ["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
                "--n-ensemble", "150", "--t-final", "20", "--seed", "42"]
        run_cli(args + ["--out", str(a_dir)])
        run_cli(args + ["--out", str(b_dir)])
        for name in ("phase_diffusion.json", "phase_variance.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_fit_quality(self, tmp_path):
        r = run_cli(["phase-diffusion", "--kappa", "1", "--gamma", "0",
                     "--delta-eps", "0.05", "--n-ensemble", "300", "--t-final", "40",
                     "--seed", "7", "--out", str(tmp_path)])
        assert r.returncode == 0
        doc = json.loads((tmp_path / "phase_diffusion.json").read_text())
        assert doc["d_phi_hat"] == pytest.approx(doc["analytic"]["value"], rel=0.2)
        csv = (tmp_path / "phase_variance.csv").read_text().splitlines()
        assert csv[0] == "t,var_phi,n_effective"

    def test_one_warning_when_gamma_is_not_small(self, tmp_path):
        r = run_cli(["phase-diffusion", "--kappa", "1", "--gamma", "0.5", "--delta-eps", "0.05",
                     "--n-ensemble", "100", "--t-final", "5", "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        warned = [line for line in r.stderr.splitlines() if "UserWarning" in line]
        assert len(warned) == 1 and "gamma=0.5" in warned[0]


_NO_SCIPY = """
import sys
from selfpulse.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --version
    rc = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
if rc or loaded:
    sys.exit(f"exit {rc}, scipy modules loaded: {loaded[:5]}")
"""


@pytest.mark.parametrize("args", [
    ["--version"],
    ["fixed-point", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13"],
    ["hopf", "--kappa", "1", "--gamma", "0.1"],
    ["sweep", "--kappa-grid", "0.1:10:5", "--gamma-grid", "0:1:3",
     "--quantities", "epsilon_h,omega_h,d,a,d_phi", "--delta-eps", "0.01"],
    ["spectrum", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13", "--elements", "33,11"],
    ["figure2"],
    ["simulate", "--t-final", "5"],
    ["limit-cycle", "--delta-eps", "0.05", "--t-periods", "20"],
    ["figure1", "--pairs", "1,0", "--delta-eps-fracs", "0.05", "--t-periods", "40"],
    ["phase-diffusion", "--delta-eps", "0.05", "--n-ensemble", "100", "--t-final", "5"],
], ids=lambda args: args[0])
def test_closed_form_commands_do_not_import_scipy(tmp_path, args):
    out = [] if args == ["--version"] else ["--out", str(tmp_path)]
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, *args, *out],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


_LIBRARY_NO_SCIPY = """
import sys
from selfpulse import (SDEConfig, SystemParams, linear_noise_model, simulate_linear_sde,
                       stationary_covariance)
model = linear_noise_model(SystemParams(kappa=1.0, gamma=0.1, epsilon=0.13))
stationary_covariance(model)
simulate_linear_sde(model, SDEConfig(dt=0.03, n_steps=50, n_ensemble=3, seed=1, burn_in=1.0))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
if loaded:
    sys.exit(f"scipy modules loaded: {loaded[:5]}")
"""


def test_linear_sde_library_calls_do_not_import_scipy():
    r = subprocess.run([sys.executable, "-c", _LIBRARY_NO_SCIPY], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


class TestReplay:
    @pytest.mark.parametrize("args,manifest", [
        (["fixed-point", "--kappa", "1.3", "--gamma", "0.2", "--epsilon", "0.1"],
         "fixed_point_manifest.json"),
        (["figure2", "--eps-list", "0.05,0.13", "--n-points", "101"],
         "figure2_manifest.json"),
        (["phase-diffusion", "--kappa", "1", "--gamma", "0", "--delta-eps", "0.05",
          "--n-ensemble", "120", "--t-final", "15", "--seed", "11"],
         "phase_diffusion_manifest.json"),
        (["sweep", "--kappa-grid", "0.5:1.5:3", "--gamma-grid", "0:0.2:2",
          "--quantities", "epsilon_h,d"],
         "sweep_manifest.json"),
        (["fixed-point", "--config", {"kappa": 2, "gamma": 0, "epsilon": 0.5}],
         "fixed_point_manifest.json"),
        (["simulate", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.1",
          "--t-final", "5", "--n-samples", "10", "--rel-tol", "1e-6"],
         "simulate_manifest.json"),  # the recorded argv pins a non-default rel-tol
    ])
    def test_byte_identical_outputs(self, tmp_path, args, manifest):
        args = with_config_files(args, tmp_path)
        first = tmp_path / "first"
        r = run_cli(args + ["--out", str(first)])
        assert r.returncode == 0, r.stderr
        replay_dir = tmp_path / "replayed"
        r2 = run_cli(["replay", str(first / manifest), "--out", str(replay_dir)])
        assert r2.returncode == 0, r2.stderr
        for name in outputs_of(first / manifest):
            assert (first / name).read_bytes() == (replay_dir / name).read_bytes(), name

    def test_missing_manifest(self, tmp_path):
        r = run_cli(["replay", str(tmp_path / "nope.json")])
        assert r.returncode == 1

    @pytest.mark.parametrize("manifest", [
        lambda path: [],
        lambda path: {"argv": "fixed-point"},
        lambda path: {"argv": ["fixed-point", "--kappa=1"], "version": "0.0.0"},
        lambda path: {"argv": ["replay", str(path)], "version": __version__},
        lambda path: {"argv": ["simulate", "--t-final=1"], "version": "0.1.0"},
        lambda path: {"argv": ["limit-cycle", "--kappa=1"], "version": "0.2.0"},
        lambda path: {"argv": ["fixed-point", "--kappa=1", "--jobs=1"], "version": "0.2.1"},
        lambda path: {"argv": ["simulate", "--chi=1.0"], "version": "0.2.2"},
    ], ids=["list", "argv-string", "wrong-version", "replays-itself", "before-dop853",
            "before-brentq", "before-unread-options", "before-unit-chi"])
    def test_malformed_manifest_exits_1(self, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest(path)))
        r = run_cli(["replay", str(path), "--out", str(tmp_path / "replayed")])
        assert r.returncode == 1, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert "cannot load manifest" in r.stderr


class TestOutputModes:
    def test_format_csv_echo(self, tmp_path):
        r = run_cli(["fixed-point", "--kappa", "1", "--gamma", "0.1",
                     "--epsilon", "0.13", "--format", "csv", "--out", str(tmp_path)])
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert any(line.startswith("beta_i0,") for line in lines)
        # the JSON report file is written regardless of the echo format
        assert (tmp_path / "fixed_point.json").exists()

    def test_gnuplot_alternative(self, tmp_path):
        r = run_cli(["figure2", "--eps-list", "0.05", "--n-points", "101",
                     "--gnuplot", "--out", str(tmp_path)])
        assert r.returncode == 0
        script = (tmp_path / "figure2.gp").read_text()
        assert "spectrum_eps0.05.csv" in script
        assert not (tmp_path / "figure2.svg").exists()

    def test_figure1_gnuplot_script(self, tmp_path):
        r = run_cli(["figure1", "--pairs", "1.0,0.1", "--delta-eps-fracs", "0.05",
                     "--t-periods", "30", "--gnuplot", "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "figure1_panel0.gp").read_bytes() == (
            b"set datafile separator ','\n"
            b"set title 'kappa=1, gamma=0.1'\n"
            b"set xlabel 'beta_r'\n"
            b"set ylabel 'alpha_r'\n"
            b"set key top right\n"
            b"plot 'figure1_panel0_deps0_numerical.csv' using 2:4 with lines "
            b"title 'deps=0.01112', \\\n"
            b"     'figure1_panel0_deps0_predicted.csv' using 2:4 with lines dashtype 2 "
            b"title 'predicted'\n")
        assert not (tmp_path / "figure1_panel0.svg").exists()


class TestConfigPrecedence:
    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": 2.0, "gamma": 0.3, "epsilon": 0.05}))
        r = run_cli(["fixed-point", "--config", str(cfg), "--kappa", "1.0",
                     "--out", str(tmp_path)])
        assert r.returncode == 0
        doc = json.loads((tmp_path / "fixed_point.json").read_text())
        assert doc["kappa"] == 1.0    # flag wins
        assert doc["gamma"] == 0.3    # config fills the rest
        assert doc["epsilon"] == 0.05

    def test_manifest_records_resolved_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.07}))
        run_cli(["fixed-point", "--config", str(cfg), "--out", str(tmp_path)])
        man = json.loads((tmp_path / "fixed_point_manifest.json").read_text())
        assert man["parameters"]["epsilon"] == 0.07

    def test_environment_sets_no_default(self, tmp_path):
        r = run_cli(["simulate", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.1",
                     "--t-final", "5", "--n-samples", "10", "--out", str(tmp_path)],
                    env={"SELFPULSE_DEFAULT_TOL": "1e-6"})
        assert r.returncode == 0, r.stderr
        man = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert man["parameters"]["rel_tol"] == 1e-9
        assert "--rel-tol=1e-09" in man["argv"]


def test_package_reads_no_environment():
    """Every setting is a flag or config key, so the manifest records it and
    replay reproduces it; the environment is no hidden third source."""
    src = Path(__file__).resolve().parent.parent / "src" / "selfpulse"
    readers = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\b(environb?|getenvb?)\b", line)]
    assert readers == []


def test_benchmark_tracer_finds_every_target(tmp_path):
    """The benchmark's tracer wraps package functions by name and fails on
    the first name it cannot find, so a rename breaks this test too."""
    root = Path(__file__).resolve().parent.parent
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), str(spans),
                        "cli", "hopf", "--out", str(tmp_path / "out")],
                       capture_output=True, text=True, cwd=root)
    assert r.returncode == 0, r.stderr
    doc = json.loads(spans.read_text())
    assert doc["rc"] == 0
    assert "center_manifold.cm_report" in {span["name"] for span in doc["spans"]}
