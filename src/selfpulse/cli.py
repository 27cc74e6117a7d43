"""Command-line front end: reports, figure reproduction, sweeps, replay.

Every command writes its outputs plus a run manifest into the --out
directory; `selfpulse replay <manifest>` re-executes the recorded
invocation and reproduces the outputs byte-identically (stochastic
commands included, via the recorded seed).

Each option is one row of ``_OPTIONS``: the argument parser, the
resolution of flag text > config entry > default, and the manifest's
replay argv are all built from that table.

Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import center_manifold as cm
from . import noise, semiclassics, stochastic
from .csvio import write_csv
from .errors import DomainError, SelfPulseError
from .model import SemiclassicalState, SystemParams
from .svg import Curve, gnuplot_script, render_svg


def _echo(doc: dict, fmt: str) -> None:
    """Mirror a report to stdout as JSON (default) or flat key,value CSV."""
    if fmt == "csv":
        def flat(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    yield from flat(f"{prefix}{k}." if prefix else f"{k}.", obj[k])
            else:
                yield prefix[:-1], obj
        for key, val in flat("", doc):
            print(f"{key},{val}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Outputs:
    """The output directory; ``out(name)`` returns a path and records ``name`` for the manifest."""

    def __init__(self, root: Path):
        self.root = root
        self.names = []

    def __call__(self, name: str) -> Path:
        self.names.append(name)
        return self.root / name


def _figure(out: _Outputs, stem: str, gnuplot: bool, curves: list, data_files: list,
            **labels) -> None:
    """Plot ``curves`` to ``stem``.svg, or with --gnuplot write ``stem``.gp over ``data_files``."""
    if gnuplot:
        gnuplot_script(out(stem + ".gp"), data_files, **labels)
    else:
        render_svg(out(stem + ".svg"), curves, **labels)


def _write_manifest(out: Path, command: str, params: dict, seed: int,
                    argv: list, outputs: list, wall: float) -> None:
    name = command.replace("-", "_") + "_manifest.json"
    doc = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "argv": argv,
        "outputs": outputs,
        "wall_time_s": wall,
    }
    if "rel_tol" in params:  # the commands that take --rel-tol are those that integrate
        doc["integrator"] = semiclassics.INTEGRATOR
    _write_json(out / name, doc)


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("--config must contain a JSON object")
    if not isinstance(doc.get("out", ""), str):
        raise DomainError("config key 'out' must be a directory name")
    return doc


# ---------------------------------------------------------------------------
# fixed-point
# ---------------------------------------------------------------------------

def _run_fixed_point(p: dict, out: _Outputs) -> dict:
    params = SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=p["epsilon"])
    fp = semiclassics.fixed_point(params)
    report = semiclassics.classify_fixed_point(params, fp)
    doc = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "epsilon": p["epsilon"],
        **asdict(fp),
        "classification": report.classification,
        "max_real_part": report.max_real_part,
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
    }
    _write_json(out("fixed_point.json"), doc)
    return doc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_simulate(p: dict, out: _Outputs) -> None:
    traj = semiclassics.integrate(
        SemiclassicalState(alpha=p["alpha0"], beta=p["beta0"]).to_vector(),
        SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=p["epsilon"]),
        (0.0, p["t_final"]),
        rel_tol=p["rel_tol"], abs_tol=p["abs_tol"], n_samples=p["n_samples"],
    )
    traj.to_csv(out("trajectory.csv"))
    print(f"wrote trajectory.csv ({len(traj.times)} samples)")


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------

def _run_hopf(p: dict, out: _Outputs) -> dict:
    doc = cm.cm_report(p["kappa"], p["gamma"])
    doc["eigenvalues_at_threshold"] = [
        [z.real, z.imag] for z in semiclassics.hopf_eigenvalues(p["kappa"], p["gamma"])
    ]
    doc["trace_derivative"] = doc["d"] * p["kappa"]
    _write_json(out("hopf.json"), doc)
    return doc


# ---------------------------------------------------------------------------
# limit-cycle
# ---------------------------------------------------------------------------

def _measure_cycle(kappa: float, gamma: float, delta_eps: float, t_periods: float,
                   rel_tol: float, transient_fraction: float = 0.5):
    """Integrate from the predicted orbit and measure the settled cycle."""
    hp = semiclassics.hopf_threshold(kappa, gamma)
    pred = cm.predict_limit_cycle(kappa, gamma, delta_eps)
    params = SystemParams(kappa=kappa, gamma=gamma, epsilon=hp.epsilon_h + delta_eps)
    period0 = 2.0 * math.pi / pred.omega_h
    t_final = t_periods * period0
    traj = semiclassics.integrate(
        pred.orbit(0.0)[0], params, (0.0, t_final), rel_tol=rel_tol,
        n_samples=max(2000, int(t_periods * 60)),  # 60 samples per period
    )
    meas = semiclassics.detect_limit_cycle(traj, transient_fraction=transient_fraction)
    sel = traj.times >= traj.times[0] + transient_fraction * (traj.times[-1] - traj.times[0])
    u, v = cm.to_normal_form(kappa, gamma, traj.y[sel, 0], traj.y[sel, 2])
    radius = np.hypot(u, v)
    return pred, meas, traj, radius


def _run_limit_cycle(p: dict, out: _Outputs) -> dict:
    pred, meas, traj, radius = _measure_cycle(
        p["kappa"], p["gamma"], p["delta_eps"], p["t_periods"], p["rel_tol"],
    )
    nf_amp = float(radius.mean())
    doc = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "delta_epsilon": p["delta_eps"],
        "measured": {**{k: v for k, v in asdict(meas).items() if k != "crossing_times"},
                     "normal_form_amplitude": nf_amp},
        "predicted": {
            "amplitude_A": pred.amplitude_A,
            "amplitude_beta_r": pred.amplitude_beta_r,
            "period": 2.0 * math.pi / pred.omega_h,
            "omega_h": pred.omega_h,
            "beta_i_const": pred.beta_i_const,
            "alpha_i_const": pred.alpha_i_const,
        },
        "relative_errors": {
            "amplitude": abs(nf_amp - pred.amplitude_A) / pred.amplitude_A,
            "period": abs(meas.period - 2.0 * math.pi / pred.omega_h) * pred.omega_h
            / (2.0 * math.pi),
        },
    }
    _write_json(out("limit_cycle.json"), doc)
    traj.to_csv(out("limit_cycle_trajectory.csv"))
    return doc


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _peak_or_note(result, i: int, j: int) -> dict:
    try:
        return asdict(noise.spectral_peak(result, i, j))
    except DomainError as exc:
        return {"note": str(exc)}


def _run_spectrum(p: dict, out: _Outputs) -> dict:
    params = SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=p["epsilon"])
    model = noise.linear_noise_model(params)
    result = noise.spectrum_scan(model, p["omega_min"], p["omega_max"], p["n_points"])
    extra = [e for e in p["elements"] if e != (2, 2)]
    noise.spectrum_to_csv(result, out("spectrum.csv"), extra_pairs=extra)
    summary = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "epsilon": p["epsilon"],
        "epsilon_h": semiclassics.hopf_threshold(p["kappa"], p["gamma"]).epsilon_h,
        "peaks": {f"S{i + 1}{j + 1}": _peak_or_note(result, i, j)
                  for i, j in [(2, 2)] + extra},
    }
    _write_json(out("spectrum_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# phase-diffusion
# ---------------------------------------------------------------------------

def _run_phase_diffusion(p: dict, out: _Outputs) -> dict:
    params = SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=0.0)
    steps = p["t_final"] / p["dt"]
    if not 0.5 < steps < math.inf:  # rounds to a count of at least one step
        raise DomainError(f"--t-final {p['t_final']:g} over --dt {p['dt']:g} is {steps:.4g} "
                          "steps, not a finite count >= 1")
    config = stochastic.SDEConfig(
        dt=p["dt"], n_steps=int(round(steps)),
        n_ensemble=p["n_ensemble"], seed=p["seed"], burn_in=p["burn_in"],
    )
    record = stochastic.simulate_limit_cycle_noise(
        params, p["delta_eps"], config, mode=p["mode"], noise_scale=p["noise_scale"],
    )
    fit = stochastic.measure_phase_diffusion(record)
    # without gamma: simulate_limit_cycle_noise already warned if it is not small against kappa
    analytic = noise.phase_diffusion_constant(p["kappa"], p["delta_eps"])
    doc = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "delta_epsilon": p["delta_eps"],
        "mode": p["mode"],
        "noise_scale": p["noise_scale"],
        "seed": p["seed"],
        "excluded": record.excluded,
        **asdict(fit),
        "analytic": asdict(analytic),
    }
    _write_json(out("phase_diffusion.json"), doc)
    stochastic.phase_record_to_csv(record, out("phase_variance.csv"))
    return doc


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def _figure1_panel(task):
    """One (kappa, gamma) panel: settled and predicted orbits per delta-eps, as (t, state) rows."""
    kappa, gamma, fracs, t_periods, rel_tol = task
    hp = semiclassics.hopf_threshold(kappa, gamma)
    panel = []
    for frac in fracs:
        deps = frac * hp.epsilon_h
        if deps == 0.0:
            fp = semiclassics.fixed_point(
                SystemParams(kappa=kappa, gamma=gamma, epsilon=hp.epsilon_h))
            marker = np.concatenate([[0.0], fp.to_vector()])[None]
            panel.append({
                "delta_eps": 0.0,
                "numerical": marker,
                "predicted": marker,
                "overlap": float("nan"),
                "period": float("nan"),
            })
            continue
        pred, meas, traj, radius = _measure_cycle(
            kappa, gamma, deps, t_periods, rel_tol, transient_fraction=0.6)
        period = meas.period if meas.converged else 2.0 * math.pi / pred.omega_h
        tail = traj.times >= traj.times[-1] - 1.05 * period
        ts = np.linspace(0.0, 2.0 * math.pi / pred.omega_h, 241)
        panel.append({
            "delta_eps": deps,
            "numerical": np.column_stack([traj.times[tail], traj.y[tail]]),
            "predicted": np.column_stack([ts, pred.orbit(ts)]),
            "overlap": float(np.mean(np.abs(radius - pred.amplitude_A)) / pred.amplitude_A),
            "period": period,
        })
    return panel


def _run_figure1(p: dict, out: _Outputs) -> None:
    tasks = [(k, g, tuple(p["delta_eps_fracs"]), p["t_periods"], p["rel_tol"])
             for k, g in p["pairs"]]
    if p["jobs"] > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a start-up cost

        with ProcessPoolExecutor(max_workers=p["jobs"]) as ex:
            panels = list(ex.map(_figure1_panel, tasks))
    else:
        panels = [_figure1_panel(task) for task in tasks]

    summary = []
    for idx, ((kappa, gamma), panel) in enumerate(zip(p["pairs"], panels)):
        curves, data_files = [], []
        for q, item in enumerate(panel):
            num_name = f"figure1_panel{idx}_deps{q}_numerical.csv"
            pred_name = f"figure1_panel{idx}_deps{q}_predicted.csv"
            write_csv(out(num_name), semiclassics.TRAJECTORY_HEADER, item["numerical"])
            write_csv(out(pred_name), semiclassics.TRAJECTORY_HEADER, item["predicted"])
            label = f"deps={item['delta_eps']:.4g}"
            curves.append(Curve(x=item["numerical"][:, 1], y=item["numerical"][:, 3],
                                label=label, dashed=False))
            curves.append(Curve(x=item["predicted"][:, 1], y=item["predicted"][:, 3],
                                label="", dashed=True))
            data_files += [(num_name, label, "2:4", False), (pred_name, "predicted", "2:4", True)]
            summary.append({
                "panel": idx, "kappa": kappa, "gamma": gamma,
                "delta_eps": item["delta_eps"],
                "mean_radial_gap_over_A": item["overlap"],
                "period": item["period"],
            })
        _figure(out, f"figure1_panel{idx}", p["gnuplot"], curves, data_files,
                title=f"kappa={kappa:g}, gamma={gamma:g}", xlabel="beta_r", ylabel="alpha_r")
    _write_json(out("figure1_summary.json"), summary)
    print(f"wrote {len(out.names)} files for {len(p['pairs'])} panels")


# ---------------------------------------------------------------------------
# figure2
# ---------------------------------------------------------------------------

def _run_figure2(p: dict, out: _Outputs) -> dict:
    curves, data_files, peaks = [], [], {}
    for eps in p["eps_list"]:
        # a drive at or beyond threshold raises ThresholdError, which names eps_h
        model = noise.linear_noise_model(
            SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=eps))
        result = noise.spectrum_scan(model, p["omega_min"], p["omega_max"], p["n_points"])
        name = f"spectrum_eps{eps:g}.csv"
        noise.spectrum_to_csv(result, out(name))
        pos = result.omega_grid >= 0.0
        curves.append(Curve(x=result.omega_grid[pos],
                            y=np.abs(result.S[pos, 2, 2]),
                            label=f"eps={eps:g}"))
        data_files.append((name, f"eps={eps:g}", "1:4", False))
        peaks[f"eps={eps:g}"] = _peak_or_note(result, 2, 2)
    _figure(out, "figure2", p["gnuplot"], curves, data_files,
            title=f"|S33|, kappa={p['kappa']:g}, gamma={p['gamma']:g}",
            xlabel="omega", ylabel="|S33|")
    summary = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "omega_h": semiclassics.hopf_frequency(p["kappa"], p["gamma"]),
        "epsilon_h": semiclassics.hopf_threshold(p["kappa"], p["gamma"]).epsilon_h,
        "peaks": peaks,
    }
    _write_json(out("figure2_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Each sweep quantity as a function of (kappa, gamma, delta_eps).
_SWEEP_QUANTITIES = {
    "epsilon_h": lambda k, g, de: semiclassics.hopf_threshold(k, g).epsilon_h,
    "omega_h": lambda k, g, de: semiclassics.hopf_frequency(k, g),
    "d": lambda k, g, de: cm.radial_growth_rate(k, g),
    "a": lambda k, g, de: cm.lyapunov_coefficient(k, g),
    "beta_i0h": lambda k, g, de: semiclassics.hopf_threshold(k, g).beta_i0h,
    "alpha_i0h": lambda k, g, de: semiclassics.hopf_threshold(k, g).alpha_i0h,
    "d_phi": lambda k, g, de: noise.phase_diffusion_constant(k, de, gamma=g).value,
}


def _sweep_point(kappa: float, gamma: float, quantities: list, delta_eps: float):
    """One grid row, and its warnings as {(category, file, line): first message}.

    The interpreter's warning filters still apply: ``-W error`` makes a
    warning fail the sweep, and ``-W ignore`` leaves nothing to record.
    """
    row = {"kappa": kappa, "gamma": gamma}
    with warnings.catch_warnings(record=True) as log:
        for q in quantities:
            row[q] = _SWEEP_QUANTITIES[q](kappa, gamma, delta_eps)
    caught = {}
    for w in log:
        caught.setdefault((w.category.__name__, w.filename, w.lineno), str(w.message))
    return row, caught


def _run_sweep(p: dict, out: _Outputs) -> None:
    results = [_sweep_point(k, g, p["quantities"], p["delta_eps"])
               for k in p["kappa_grid"] for g in p["gamma_grid"]]
    rows = [row for row, _ in results]
    header = ["kappa", "gamma"] + list(p["quantities"])
    write_csv(out("sweep.csv"), header, [[row[h] for h in header] for row in rows])
    print(f"wrote sweep.csv ({len(rows)} rows)")
    # One line per warning site, not one per grid point.
    warned = {}
    for _, caught in results:
        for site, message in caught.items():
            warned.setdefault(site, [message, 0])[1] += 1
    for (category, _, _), (message, count) in warned.items():
        print(f"selfpulse sweep: {category} at {count} of {len(rows)} points, first: {message}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _complex(text: str) -> complex:
    value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(text: str) -> list:
    return [_float(tok) for tok in text.split(",") if tok.strip() != ""]


def _pairs(text: str) -> list:
    pairs = [tuple(_floats(chunk)) for chunk in text.split(";") if chunk.strip() != ""]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("every pair needs two numbers")
    return pairs


def _grid(text: str) -> list:
    lo, hi, count = text.split(":")
    if int(count) < 1:
        raise ValueError("the grid is empty")
    return [float(v) for v in np.linspace(_float(lo), _float(hi), int(count))]


def _names(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _elements(text: str) -> list:
    labels = _names(text)
    if any(len(tok) != 2 or not set(tok) <= set("1234") for tok in labels):
        raise ValueError("labels are two digits from 1 to 4")
    return [(int(tok[0]) - 1, int(tok[1]) - 1) for tok in labels]


def _switch(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


class _Option(NamedTuple):
    """One row of the option table: a flag shared by one or more commands.

    ``default`` is a value, or a function of the options resolved before
    it; None makes the option required.  ``check`` is a range check on the
    parsed value and ``message`` says what it demands.
    """

    commands: str
    flag: str
    parse: Callable[[str], object]
    default: object = None
    check: Callable[[object], bool] = None
    message: str = ""
    help: str = None

    @property
    def name(self) -> str:
        """Config key and argparse destination."""
        return self.flag[2:].replace("-", "_")


_COMMANDS = {
    "fixed-point": (_run_fixed_point, "critical point and stability"),
    "simulate": (_run_simulate, "integrate the semiclassical equations"),
    "hopf": (_run_hopf, "threshold, frequency and reduction report"),
    "limit-cycle": (_run_limit_cycle, "measure the settled cycle above threshold"),
    "spectrum": (_run_spectrum, "linearized noise spectrum below threshold"),
    "phase-diffusion": (_run_phase_diffusion, "Monte-Carlo phase diffusion on the cycle"),
    "figure1": (_run_figure1, "limit cycles vs predictions, four panels"),
    "figure2": (_run_figure2, "|S33| curves approaching threshold"),
    "sweep": (_run_sweep, "closed-form quantities over a (kappa, gamma) grid"),
}

_ALL = " ".join(_COMMANDS)
_POSITIVE = (lambda v: v > 0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_NON_EMPTY = (bool, "must be non-empty")

# Resolved in this order, so a default may read the options above it.
_OPTIONS = (
    _Option("fixed-point hopf limit-cycle spectrum phase-diffusion figure2", "--kappa",
            _float, 1.0, *_POSITIVE),
    _Option("simulate", "--kappa", _float, 1.0, *_NON_NEGATIVE),
    _Option("fixed-point simulate hopf limit-cycle spectrum phase-diffusion", "--gamma",
            _float, 0.0, *_NON_NEGATIVE),
    _Option("figure2", "--gamma", _float, 0.1, *_NON_NEGATIVE),
    _Option("fixed-point simulate", "--epsilon", _float, 0.0),
    _Option("spectrum", "--epsilon", _float, 0.01),
    _Option("simulate", "--beta0", _complex, "0.1", help="e.g. '0.4j' or '0.1+0.2j'"),
    _Option("simulate", "--alpha0", _complex, "0"),
    _Option("simulate", "--t-final", _float, 100.0, *_POSITIVE),
    _Option("simulate", "--n-samples", int, 2000, lambda v: v >= 1, "must be >= 1"),
    _Option("simulate limit-cycle figure1", "--rel-tol", _float, 1e-9),
    _Option("simulate", "--abs-tol", _float, 1e-12),
    _Option("limit-cycle phase-diffusion", "--delta-eps", _float, None, *_POSITIVE),
    _Option("sweep", "--delta-eps", _float, 0.0, help="required > 0 for d_phi"),
    _Option("limit-cycle", "--t-periods", _float, 150.0, *_POSITIVE),
    _Option("figure1", "--t-periods", _float, 80.0, *_POSITIVE),
    _Option("spectrum figure2", "--omega-min", _float, -2.0),
    _Option("spectrum figure2", "--omega-max", _float, 2.0),
    _Option("spectrum figure2", "--n-points", int, 2001, lambda v: v >= 2, "must be >= 2"),
    _Option("spectrum", "--elements", _elements, "33", help="one-based labels, e.g. '33,11'"),
    _Option("phase-diffusion", "--mode", str, "reduced",
            lambda v: v in ("reduced", "full"), "must be reduced or full"),
    _Option("phase-diffusion", "--noise-scale", _float,
            lambda p: 1.0 if p["mode"] == "reduced" else 1e-3, *_NON_NEGATIVE),
    _Option("phase-diffusion", "--n-ensemble", int, 500,
            lambda v: v >= 100, "must be >= 100 for a meaningful fit"),
    _Option("phase-diffusion", "--dt", _float,
            lambda p: stochastic.default_cycle_dt(p["kappa"], p["gamma"]), *_POSITIVE),
    _Option("phase-diffusion", "--t-final", _float, 80.0, *_POSITIVE),
    _Option("phase-diffusion", "--burn-in", _float,
            lambda p: 0.0 if p["mode"] == "reduced" else 10.0, *_NON_NEGATIVE),
    _Option("figure1", "--pairs", _pairs, "1.0,0.0;1.0,0.1;0.5,0.0;0.5,0.5", *_NON_EMPTY,
            help="'k1,g1;k2,g2;...'"),
    _Option("figure1", "--delta-eps-fracs", _floats, "0.05,0.1,0.2",
            lambda v: v and min(v) >= 0, "must be non-empty and >= 0",
            help="fractions of epsilon_h"),
    _Option("figure2", "--eps-list", _floats, "0.01,0.05,0.13", *_NON_EMPTY,
            help="comma-separated drives"),
    _Option("figure1 figure2", "--gnuplot", _switch, False,
            help="emit a plot script with the data instead of SVG"),
    _Option("sweep", "--kappa-grid", _grid, None, lambda v: min(v) > 0,
            "values must be > 0", help="min:max:count"),
    _Option("sweep", "--gamma-grid", _grid, None, lambda v: min(v) >= 0,
            "values must be >= 0", help="min:max:count"),
    _Option("sweep", "--quantities", _names, "epsilon_h,omega_h,d,a",
            lambda v: set(v) <= set(_SWEEP_QUANTITIES), "has an unknown quantity",
            help=f"comma-separated from {', '.join(_SWEEP_QUANTITIES)}"),
    _Option(_ALL, "--seed", int, 0, lambda v: 0 <= v < 2**64, "must lie in [0, 2**64)",
            help="64-bit PRNG seed"),
    _Option("figure1", "--jobs", int, 1, lambda v: v >= 1, "must be >= 1",
            help="parallel workers, one panel each"),
    _Option("fixed-point hopf limit-cycle spectrum phase-diffusion figure2", "--format",
            str, "json", lambda v: v in ("csv", "json"), "must be csv or json",
            help="stdout echo format, csv or json; output files keep their formats"),
)


def _options(command: str) -> list:
    return [opt for opt in _OPTIONS if command in opt.commands.split()]


def build_parser() -> _Parser:
    parser = _Parser(prog="selfpulse", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON object of option values; flags win")
        sp.add_argument("--out", help="output directory (default selfpulse_out)")
        for opt in _options(command):
            if opt.parse is _switch:
                sp.add_argument(opt.flag, action="store_const", const="true", help=opt.help)
            else:
                sp.add_argument(opt.flag, help=opt.help)
    sp = sub.add_parser("replay", help="re-run a recorded manifest")
    sp.add_argument("manifest")
    sp.add_argument("--out", help="output directory for the replay")
    return parser


def _resolve(args, config: dict) -> tuple:
    """Parse each option from its flag text, else its config entry, else its default.

    Returns the parameters and the argv that re-parses the same texts.
    """
    options = _options(args.command)
    unknown = sorted(set(config) - {opt.name for opt in options} - {"out"})
    if unknown:
        raise DomainError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    p, argv = {}, [args.command]
    for opt in options:
        raw = getattr(args, opt.name)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            raw = opt.default(p) if callable(opt.default) else opt.default
        if raw is None:
            raise DomainError(f"{opt.flag} is required")
        text = str(raw)
        try:
            value = opt.parse(text)
        except (ValueError, TypeError) as exc:
            hint = f" ({opt.help})" if opt.help else ""
            raise DomainError(f"{opt.flag} cannot take {text!r}{hint}: {exc}") from None
        if opt.check is not None and not opt.check(value):
            raise DomainError(f"{opt.flag} {opt.message}, got {text!r}")
        p[opt.name] = value
        if opt.parse is not _switch:
            argv.append(f"{opt.flag}={text}")
        elif value:
            argv.append(opt.flag)
    if "d_phi" in p.get("quantities", ()) and not p["delta_eps"] > 0:
        raise DomainError("quantity d_phi requires --delta-eps > 0")
    return p, argv


def _replay_argv(args) -> list:
    """The recorded argv of a manifest written by this version, plus ``--out``."""
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)
            and argv[:1] and argv[0] in _COMMANDS):
        raise ValueError("expected a JSON object whose argv is a list of strings "
                         "starting with a command")
    if manifest.get("version") != __version__:
        raise ValueError(f"written by version {manifest.get('version')!r}, "
                         f"this is {__version__}")
    out = args.out or (str(Path(args.manifest).resolve().parent) + "_replay")
    return argv + ["--out", out]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "replay":
        try:
            replay_argv = _replay_argv(args)
        except (OSError, ValueError) as exc:
            print(f"selfpulse replay: cannot load manifest: {exc}", file=sys.stderr)
            return 1
        return main(replay_argv)

    try:
        config = _load_config(args.config)
        p, canonical_argv = _resolve(args, config)
        out = Path(args.out or config.get("out") or "selfpulse_out")
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"selfpulse {args.command}: {exc}", file=sys.stderr)
        return 1

    start = time.monotonic()
    outputs = _Outputs(out)
    try:
        report = _COMMANDS[args.command][0](p, outputs)
    except (SelfPulseError, ArithmeticError) as exc:
        print(f"selfpulse {args.command}: {exc}", file=sys.stderr)
        return 2
    wall = time.monotonic() - start
    if report is not None:
        _echo(report, p["format"])

    params = {k: str(v) if isinstance(v, complex) else v for k, v in p.items()}
    _write_manifest(out, args.command, params, p["seed"], canonical_argv, outputs.names, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
