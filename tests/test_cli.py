import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfpulse import __version__, cli, commands

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
        ["figure1", "--jobs", "0"],
        ["hopf", "--seed", "-1"],
        ["hopf", "--seed", str(2**64)],
        # both drives format as eps=0.05, so the second file overwrote the first
        ["figure2", "--eps-list", "0.05,0.0500000001"],
        ["spectrum", "--elements", "11,11"],  # wrote the S11 columns twice
        # the collocation sets the cycle's accuracy, not the settling run's tolerance
        ["limit-cycle", "--delta-eps", "0.01", "--rel-tol", "1e-9"],
        ["figure1", "--rel-tol", "1e-9"],
    ])
    def test_usage_errors_exit_1(self, args, tmp_path):
        args = with_config_files(args, tmp_path)
        r = run_cli(args + ["--out", str(tmp_path)] if args[0] != "no-such-command" else args)
        assert r.returncode == 1, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr

    # one grid past the cap is refused before its list is built, and two
    # grids whose product is past it before any point is evaluated
    @pytest.mark.parametrize("grids", [
        ["--kappa-grid", "1:2:10000000000", "--gamma-grid", "0:1:2"],
        ["--kappa-grid", "1:2:100000", "--gamma-grid", "0:1:100000"],
    ], ids=["one_grid", "product"])
    def test_sweep_size_is_bounded(self, grids, tmp_path):
        r = run_cli(["sweep", *grids, "--out", str(tmp_path)], timeout=60)
        assert r.returncode == 1, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        assert "--kappa-grid" in r.stderr and "--gamma-grid" in r.stderr
        assert str(commands.MAX_SWEEP_POINTS) in r.stderr
        assert not (tmp_path / "sweep.csv").exists()

    # a scan holds about 1 KB a point; 10^12 points ended in numpy's
    # allocation traceback
    @pytest.mark.parametrize("command", ["spectrum", "figure2"])
    def test_spectrum_size_is_bounded(self, command, tmp_path):
        r = run_cli([command, "--n-points", "1000000000000", "--out", str(tmp_path)])
        assert r.returncode == 1, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        assert "--n-points" in r.stderr and str(commands.MAX_SPECTRUM_POINTS) in r.stderr

    def test_failing_sweep_leaves_no_table(self, tmp_path):
        # epsilon_h is subnormal at the third point; the two rows before it
        # were once left in sweep.csv
        r = run_cli(["sweep", "--kappa-grid", "1:1e-161:3", "--gamma-grid", "0:0:1",
                     "--quantities", "epsilon_h", "--out", str(tmp_path)])
        assert r.returncode == 2, r.stderr
        assert list(tmp_path.iterdir()) == []

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
        # the grid's width overflows to inf: every row of the scan was nan, with exit 0
        (["spectrum", "--omega-min=-1e308", "--omega-max", "1e308"], ("omega_min", "omega_max")),
        (["figure2", "--omega-min=-1e308", "--omega-max", "1e308", "--eps-list", "0.1"],
         ("omega_min", "omega_max")),
        # past the radial relaxation's Euler limit; reported as no surviving members before
        (["phase-diffusion", "--delta-eps", "150", "--n-ensemble", "100", "--t-final", "5"],
         ("dt=", "delta_epsilon=150")),
        # squares of a finite phase variance overflow in the fit: R^2 was written as NaN
        # and the standard error as Infinity, with exit 0
        (["phase-diffusion", "--delta-eps", "1e-200", "--n-ensemble", "100", "--t-final", "5"],
         ("R^2", "variance")),
        (["phase-diffusion", "--delta-eps", "0.05", "--noise-scale", "1e300",
          "--n-ensemble", "100", "--t-final", "5"], ("R^2", "variance")),
        (["phase-diffusion", "--delta-eps", "0.05", "--noise-scale", "1e154",
          "--n-ensemble", "100", "--t-final", "0.1"], ("stderr", "variance")),
        # the variance itself overflows; numpy's RuntimeWarning was a second line
        (["phase-diffusion", "--delta-eps", "0.05", "--noise-scale", "1e305",
          "--n-ensemble", "100", "--t-final", "5"], ("variance is not finite",)),
        # D_phi = 0.26 kappa/delta_epsilon overflows; the row read inf, with exit 0
        (["sweep", "--kappa-grid", "1e100:1e100:1", "--gamma-grid", "0:0:1",
          "--quantities", "d_phi", "--delta-eps", "1e-300"], ("d_phi", "delta_epsilon=1e-300")),
        # A = sqrt(d delta_epsilon/|a|) overflows; once reported as a swing below the floor
        (["limit-cycle", "--delta-eps", "1e308"], ("A is inf", "delta_epsilon=1e+308")),
        # a coarse step, not the zero noise, blows the full mode up; the message named
        # only noise_scale, and --dt 0.001 runs
        (["phase-diffusion", "--mode", "full", "--noise-scale", "0", "--delta-eps", "5",
          "--n-ensemble", "100", "--t-final", "5"], ("dt=0.02", "noise_scale=0")),
        # past the radial relaxation's Euler limit d*delta_epsilon*dt < 1 (53 at dt = 0.02),
        # where rounding alone had not yet seeded the instability: exit 0
        (["phase-diffusion", "--delta-eps", "60", "--n-ensemble", "100", "--t-final", "5"],
         ("dt=0.02", "delta_epsilon=60")),
        # gamma > 0.1 kappa warns before the relaxation is refused: the warning was a
        # second stderr line
        (["phase-diffusion", "--gamma", "0.5", "--delta-eps", "1e6"], ("delta_epsilon=1e+06",)),
    ], ids=["overflow", "underflow", "samples", "sweep_underflow", "epsilon_h_subnormal",
            "epsilon_h_overflow", "sweep_epsilon_h_subnormal", "simulate_state_overflow",
            "simulate_drive_overflow", "rel_tol_below_floor", "fixed_point_cubic_overflow",
            "ensemble_dt", "ensemble_n_ensemble", "ensemble_burn_in", "ensemble_step_overflow",
            "spectrum_width_overflow", "figure2_width_overflow", "reduced_radius_overflow",
            "phase_variance_tiny_drive", "phase_variance_noise_scale", "phase_stderr_overflow",
            "phase_variance_overflow",
            "sweep_d_phi_overflow", "limit_cycle_amplitude_overflow", "full_mode_coarse_dt",
            "reduced_relaxation_unstable", "warned_then_refused"])
    def test_arithmetic_and_sample_limits_exit_2(self, args, named, tmp_path):
        r = run_cli(args + ["--out", str(tmp_path)])
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        for part in named:  # the message names the input to change
            assert part in r.stderr

    def test_warning_promoted_to_error_exits_2(self, tmp_path):
        # past 0.2 epsilon_h limit-cycle warns; raised as an error, it ended in a traceback
        r = run_cli(["limit-cycle", "--delta-eps", "0.1", "--out", str(tmp_path)],
                    env={"PYTHONWARNINGS": "error"})
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("selfpulse limit-cycle: UserWarning: delta_epsilon=0.1 ")

    # argparse's own pattern takes only -1 and -.5 for values, so these exited 1
    # with "expected one argument"
    @pytest.mark.parametrize("args, recorded", [
        (["simulate", "--beta0", "-0.1+0.2j", "--t-final", "1", "--n-samples", "5"],
         "--beta0=-0.1+0.2j"),
        (["fixed-point", "--epsilon", "-1e-3"], "--epsilon=-1e-3"),
        (["spectrum", "--omega-min", "-1e-3"], "--omega-min=-1e-3"),
        (["figure2", "--eps-list", "-0.1,0.05"], "--eps-list=-0.1,0.05"),
    ], ids=["complex", "exponent", "range_end", "list"])
    def test_negative_values_are_values(self, args, recorded, tmp_path):
        r = run_cli(args + ["--out", str(tmp_path / "first")])
        assert r.returncode == 0, r.stderr
        manifest = tmp_path / "first" / (args[0].replace("-", "_") + "_manifest.json")
        assert recorded in json.loads(manifest.read_text())["argv"]
        r = run_cli(["replay", str(manifest), "--out", str(tmp_path / "replayed")])
        assert r.returncode == 0, r.stderr

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

    # full-mode members overflow at these intensities; their NaN phases once
    # gave d_phi_hat = NaN with R^2 = 1 and exit 0
    @pytest.mark.parametrize("scale, t_final", [("10", "20"), ("1e6", "5")])
    def test_full_mode_overflow_exits_2(self, scale, t_final, tmp_path):
        r = run_cli(["phase-diffusion", "--mode", "full", "--noise-scale", scale,
                     "--delta-eps", "0.05", "--n-ensemble", "100", "--t-final", t_final,
                     "--out", str(tmp_path)])
        assert r.returncode == 2, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "noise_scale" in r.stderr
        assert not (tmp_path / "phase_diffusion.json").exists()

    # an output, or the manifest, whose path is a directory
    @pytest.mark.parametrize("command, blocked", [
        ("fixed-point", "fixed_point.json"),
        ("spectrum", "spectrum.csv"),
        ("fixed-point", "fixed_point_manifest.json"),
    ], ids=["json", "csv", "manifest"])
    def test_unwritable_output_exits_1(self, command, blocked, tmp_path):
        (tmp_path / blocked).mkdir()
        r = run_cli([command, "--out", str(tmp_path)])
        assert r.returncode == 1, r.stderr
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        assert blocked in r.stderr

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
    ["figure1", "--pairs", "1.0,0.1", "--delta-eps-fracs", "0,0.05"],
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


class TestLimitCycleCommand:
    def test_warning_takes_one_line(self, tmp_path):
        r = run_cli(["limit-cycle", "--delta-eps", "0.1", "--t-periods", "30",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines() == [
            "selfpulse limit-cycle: UserWarning: delta_epsilon=0.1 exceeds "
            "0.2*epsilon_h=0.03536; the leading-order prediction degrades this far from "
            "threshold"]

    def test_trajectory_samples_the_cycle(self, tmp_path):
        r = run_cli(["limit-cycle", "--delta-eps", "0.002", "--t-periods", "30",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "limit_cycle.json").read_text())
        meas = doc["measured"]
        assert "n_crossings" not in meas
        assert meas["converged"] is True and meas["closure"] <= 1e-6
        assert meas["n_modes"] >= 15 and meas["newton_iterations"] >= 1
        assert len(meas["multipliers"]) == 3 and max(meas["multipliers"]) < 1.0
        # max(2000, 60 t_periods) times over t_periods periods 2 pi / omega_h
        traj = np.loadtxt(tmp_path / "limit_cycle_trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(traj[:, 0], np.linspace(0.0, 30.0 * 4.0 * math.pi, 2000))
        # the cycle from its section crossing, not the transient from the predicted start
        assert abs(traj[0, 1]) <= 1e-12 and traj[0, 3] < 0.0


class TestFigure1Command:
    def test_panels_and_overlap(self, tmp_path):
        r = run_cli(["figure1", "--delta-eps-fracs", "0.05,0.2", "--out", str(tmp_path)])
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
        # the collocated cycle, closed: 61 times from its section crossing to its period
        num = np.loadtxt(tmp_path / "figure1_panel0_deps0_numerical.csv",
                         delimiter=",", skiprows=1)
        assert np.array_equal(num[:, 0], np.linspace(0.0, summary[0]["period"], 61))
        assert np.allclose(num[0, 1:], num[-1, 1:], rtol=0.0, atol=1e-12)

    def test_jobs_parallel_matches_serial(self, tmp_path):
        # two panels, so --jobs 2 runs them in two worker processes
        args = ["figure1", "--pairs", "1.0,0.1;0.5,0.5", "--delta-eps-fracs", "0.05"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for jobs, out in (("1", serial), ("2", parallel)):
            r = run_cli(args + ["--jobs", jobs, "--out", str(out)])
            assert r.returncode == 0, r.stderr
        names = outputs_of(serial / "figure1_manifest.json")
        assert names == outputs_of(parallel / "figure1_manifest.json")
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    def test_warnings_take_one_line_from_any_worker(self, tmp_path):
        # 0.3 epsilon_h is past the prediction's 0.2 epsilon_h: one warning a panel
        args = ["figure1", "--pairs", "1.0,0.0;0.5,0.5", "--delta-eps-fracs", "0.3"]
        runs = [run_cli(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)])
                for jobs in ("1", "2")]
        for r in runs:
            assert r.returncode == 0, r.stderr
        assert runs[0].stderr == runs[1].stderr
        lines = runs[0].stderr.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("selfpulse figure1: UserWarning: delta_epsilon=")
                   for line in lines)

    def test_jobs_capped_at_the_panel_count(self, tmp_path, monkeypatch):
        # a process pool starts all max_workers processes at its first submit,
        # so it is faked here: a real pool would be asked for 10^6 processes
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        code = commands.main(["figure1", "--pairs", "1.0,0.0;1.0,0.1", "--delta-eps-fracs", "0",
                              "--jobs", "1000000", "--out", str(tmp_path)])
        assert code == 0 and seen == [2]

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
        assert set(man["parameters"]) == {opt.name for opt in commands._options("figure1")}


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

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # rows are written as they are evaluated: 5000 points of all seven
        # quantities peaked at 5.6 MB when the table was built first
        p = {"kappa_grid": commands._linspace(0.1, 10.0, 100),
             "gamma_grid": commands._linspace(0.0, 0.005, 50),
             "quantities": list(commands._SWEEP_QUANTITIES), "delta_eps": 0.01}
        tracemalloc.start()
        try:
            commands._run_sweep(p, commands._Outputs(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 5001
        assert peak < 1_000_000

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
    ["figure1", "--pairs", "1,0", "--delta-eps-fracs", "0.05"],
    ["phase-diffusion", "--delta-eps", "0.05", "--n-ensemble", "100", "--t-final", "5"],
], ids=lambda args: args[0])
def test_closed_form_commands_do_not_import_scipy(tmp_path, args):
    out = [] if args == ["--version"] else ["--out", str(tmp_path)]
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, *args, *out],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


_NO_NUMPY = """
import runpy
import sys
sys.argv[0] = "selfpulse"
try:
    runpy.run_module("selfpulse", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
if rc or loaded:
    sys.exit(f"exit {rc}, numpy modules loaded: {loaded[:5]}")
"""


@pytest.mark.parametrize("args", [
    ["--version"],
    ["fixed-point", "--kappa", "1", "--gamma", "0.1", "--epsilon", "0.13"],
    ["hopf", "--kappa", "1", "--gamma", "0.1"],
    ["sweep", "--kappa-grid", "0.1:10:5", "--gamma-grid", "0:1:3", "--quantities",
     "epsilon_h,omega_h,d,a,beta_i0h,alpha_i0h,d_phi", "--delta-eps", "0.01"],
], ids=lambda args: args[0])
def test_closed_form_commands_do_not_import_numpy(tmp_path, args):
    """``python -m selfpulse`` runs these on the standard library alone."""
    out = [] if args == ["--version"] else ["--out", str(tmp_path)]
    r = subprocess.run([sys.executable, "-c", _NO_NUMPY, *args, *out],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# sha256 of the benchmark's quick sweep.csv as written before the closed-form
# commands stopped importing numpy, when its grids came from np.linspace
QUICK_SWEEP_SHA256 = "a5f111c82c6bfc335eb58f03b1ab7bf8d4bab0b727f02ecb0f90b8d0502c2ac6"


def test_quick_sweep_output_is_pinned(tmp_path):
    r = run_cli(["sweep", "--kappa-grid", "0.1:10:50", "--gamma-grid", "0:1:5",
                 "--quantities", "epsilon_h,omega_h,d,a,d_phi", "--delta-eps", "0.01",
                 "--out", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert digest == QUICK_SWEEP_SHA256


@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (10.0, 0.1), (0.0, 1.0), (1.0, 0.0),
                                    (-3.0, 7.5), (1.0, 1.0), (0.0, 5e-324), (1e-300, 1e300),
                                    (1.0, 1.0 + 2.0**-52)])
@pytest.mark.parametrize("count", [1, 2, 5, 50, 10**4])
def test_grid_is_numpys_linspace(lo, hi, count):
    grid = commands._grid(f"{lo!r}:{hi!r}:{count}")
    expected = np.linspace(lo, hi, count).tolist()
    assert [v.hex() for v in grid] == [v.hex() for v in expected]


def run_main(argv):
    """``commands.main(argv)`` in this process: its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = commands.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


_EDGE_TEXTS = ["0", "-0.0", "5e-324", "2.2e-308", "1e300", "-1e300", "1e-300", "inf", "-inf",
               "nan", "", "x", "1e", "0x10", "1_0", "1+2j"]
# half the floats non-negative, since most options refuse a negative value
_texts = st.one_of(st.floats().map(repr), st.floats(min_value=0.0).map(repr),
                   st.sampled_from(_EDGE_TEXTS))
# at most 3 x 3 points; a count of 0 is refused
_ends = st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(repr), _texts)
_grids = st.builds("{}:{}:{}".format, _ends, _ends, st.integers(0, 3))
_quantities = st.lists(st.sampled_from([*commands._SWEEP_QUANTITIES, "nonsense"]), max_size=4)


@st.composite
def _closed_form_argv(draw):
    command = draw(st.sampled_from(["fixed-point", "hopf", "sweep"]))
    if command == "sweep":
        options = draw(st.fixed_dictionaries(
            {"--kappa-grid": _grids, "--gamma-grid": _grids},
            optional={"--quantities": _quantities.map(",".join), "--delta-eps": _texts}))
    else:
        flags = ["--kappa", "--gamma"] + (["--epsilon"] if command == "fixed-point" else [])
        options = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(flags, _texts)))
    if draw(st.booleans()):  # "--kappa=-inf": a value that looks like a flag stays a value
        return [command, *(f"{flag}={text}" for flag, text in options.items())]
    return [command, *(part for item in options.items() for part in item)]


@settings(max_examples=200, deadline=None)
@given(_closed_form_argv(), st.sampled_from(["default", "error"]))  # as python -W
def test_closed_form_commands_exit_0_1_or_2(argv, warning_action):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter(warning_action)
        code, err = run_main(argv + ["--out", out])
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err


# t = tau/kappa and (beta, alpha) = kappa (beta', alpha') map the model at
# (kappa, kappa r) onto the model at (1, r); each reported quantity takes this
# power of kappa, and d_phi does with delta_eps scaled by kappa^2.
_KAPPA_POWERS = {"kappa": 1, "gamma": 1, "epsilon_h": 2, "omega_h": 1, "beta_i0h": 1,
                 "alpha_i0h": 1, "a": 1, "a_numeric": 1, "eigenvalues_at_threshold": 1,
                 "d": -1, "coefficients": -1, "trace_derivative": 0, "d_phi": -1}


def _scaled(value, factor):
    if isinstance(value, dict):
        return {key: v * factor for key, v in value.items()}
    if isinstance(value, list):
        return [[v * factor for v in pair] for pair in value]
    return value * factor


# kappa a power of two, so the rescaled reports are equal, not only close;
# r on both sides of 1 + sqrt(3)
@pytest.mark.parametrize("r", [0.0, 0.1, 3.0, 100.0])
def test_hopf_and_sweep_rescale_with_kappa(r, tmp_path):
    def reports(kappa):
        gamma = repr(kappa * r)
        out = tmp_path / repr(kappa)
        assert run_main(["hopf", "--kappa", repr(kappa), "--gamma", gamma,
                         "--out", str(out)])[0] == 0
        assert run_main(["sweep", "--kappa-grid", f"{kappa!r}:{kappa!r}:1",
                         "--gamma-grid", f"{gamma}:{gamma}:1", "--delta-eps",
                         repr(0.05 * kappa**2), "--quantities",
                         ",".join(commands._SWEEP_QUANTITIES), "--out", str(out)])[0] == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        row = {key: float(v) for key, v in zip(*csv.reader(lines))}
        return json.loads((out / "hopf.json").read_text()), row

    hopf, row = reports(1.0)
    assert set(hopf) | set(row) == set(_KAPPA_POWERS)
    for kappa in (2.0, 0.5):
        hopf_k, row_k = reports(kappa)
        assert hopf_k == {key: _scaled(v, kappa ** _KAPPA_POWERS[key]) for key, v in hopf.items()}
        assert row_k == {key: v * kappa ** _KAPPA_POWERS[key] for key, v in row.items()}


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


def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    names = {}
    exec(block, names)
    assert round(names["fp"].beta_i0, 5) == -0.30608  # the block's commented values
    assert round(names["hp"].epsilon_h, 6) == 0.222486


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
        lambda path: {"argv": ["figure1", "--t-periods=80"], "version": "0.2.3"},
    ], ids=["list", "argv-string", "wrong-version", "replays-itself", "before-dop853",
            "before-brentq", "before-unread-options", "before-unit-chi", "before-collocation"])
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
                     "--gnuplot", "--out", str(tmp_path)])
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
    replay reproduces it; the environment is no hidden third source.  The one
    line that touches it writes numpy's BLAS thread default, no setting of
    selfpulse's own, and makes the output bytes independent of the core count."""
    src = Path(__file__).resolve().parent.parent / "src" / "selfpulse"
    readers = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
               for line in path.read_text().splitlines()
               if re.search(r"\b(environb?|getenvb?)\b", line)]
    assert readers == [("commands.py", 'os.environ.setdefault(_name, "1")')]
    assert commands.BLAS_THREAD_VARIABLES == (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python_without_blas_threads(code, **env):
    """Run ``code`` in a fresh interpreter on the source tree, with none of the
    BLAS thread variables set apart from those in ``env``."""
    root = Path(__file__).resolve().parent.parent
    e = {k: v for k, v in os.environ.items() if k not in commands.BLAS_THREAD_VARIABLES}
    e.update(PYTHONPATH=str(root / "src"), **env)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=e)
    assert r.returncode == 0, r.stderr
    return r.stdout


class TestBlasThreads:
    """A command process runs BLAS on one thread unless its environment says otherwise."""

    def test_commands_sets_one_thread_without_numpy(self):
        out = _python_without_blas_threads(
            "import os, sys, selfpulse.commands as c\n"
            "print([os.environ[n] for n in c.BLAS_THREAD_VARIABLES], 'numpy' in sys.modules)")
        assert out.strip() == "['1', '1', '1'] False"

    def test_a_set_count_is_kept(self):
        out = _python_without_blas_threads(
            "import os, selfpulse.commands\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="3")
        assert out.strip() == "3"

    def test_cli_sets_it_before_numpy_loads(self):
        out = _python_without_blas_threads(
            "import sys, selfpulse.cli\nm = list(sys.modules)\n"
            "print(m.index('selfpulse.commands'), m.index('numpy'))")
        commands_at, numpy_at = map(int, out.split())
        assert commands_at < numpy_at


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
