"""Command-line front end: reports, figure reproduction, sweeps, replay.

Every command writes its outputs plus a run manifest into the --out
directory; `selfpulse replay <manifest>` re-executes the recorded
invocation and reproduces the outputs byte-identically (stochastic
commands included, via the recorded seed).

Each option is one row of ``_OPTIONS``: the argument parser, the
resolution of flag text > config entry > default, and the manifest's
replay argv are all built from that table.

Exit codes: 0 success, 1 usage/validation error or an output that cannot be
written, 2 numerical failure.

``python -m selfpulse`` runs ``main`` from here.  The closed-form commands
(fixed-point, hopf, sweep) and ``--version`` import only the standard
library; each other command imports numpy and the array layers it uses when
it runs.  ``selfpulse.cli`` is the same front end with every layer loaded
up front.  Both run numpy's BLAS on one thread unless the environment sets
a count (``BLAS_THREAD_VARIABLES``).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

#: The BLAS thread counts a command process sets to 1 unless the environment
#: already names them.  They must be set before numpy is first imported, so
#: ahead of every layer that imports it.  The collocation's LAPACK calls are
#: small (61- to 1021-square), and a second OpenBLAS thread mostly spins: on
#: a 2-core host a cold ``figure1 --jobs 1`` took 1.09 s of CPU at numpy's
#: default of one thread per core against 0.55 s at one thread, for 0.62
#: against 0.55 s wall, and ``import numpy`` alone 0.35 against 0.20 s of
#: CPU (medians of 10 alternating pairs).  One thread also keeps the output
#: bytes from depending on the host's core count.  Library callers that
#: import numpy first keep their threads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

from . import __version__, closed_forms
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag starts with "-" and a digit, so -1e-3, -0.1+0.2j and -0.1,0.05 are values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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
    if command in ("simulate", "limit-cycle", "figure1"):  # the commands that integrate
        from .semiclassics import INTEGRATOR

        doc["integrator"] = INTEGRATOR
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
    fp = closed_forms.fixed_point(params)
    report = closed_forms.classify_fixed_point(params, fp)
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
    from . import semiclassics

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
    doc = closed_forms.cm_report(p["kappa"], p["gamma"])
    doc["eigenvalues_at_threshold"] = [
        [z.real, z.imag] for z in closed_forms.hopf_eigenvalues(p["kappa"], p["gamma"])
    ]
    doc["trace_derivative"] = doc["d"] * p["kappa"]
    _write_json(out("hopf.json"), doc)
    return doc


# ---------------------------------------------------------------------------
# limit-cycle
# ---------------------------------------------------------------------------

#: Equispaced phases of one period at which the commands read a collocated
#: cycle's swing, means and normal-form radius.
_CYCLE_PHASES = 1024


def _collocated_cycle(kappa: float, gamma: float, delta_eps: float):
    """The prediction, the collocated cycle, and its states and normal-form radii at
    ``_CYCLE_PHASES`` phases of one period."""
    import numpy as np

    from . import center_manifold as cm, cycles

    pred = cm.predict_limit_cycle(kappa, gamma, delta_eps)
    params = SystemParams(kappa=kappa, gamma=gamma,
                          epsilon=closed_forms.hopf_threshold(kappa, gamma).epsilon_h + delta_eps)
    orbit = cycles.limit_cycle(pred, params)
    states = orbit(orbit.period * np.arange(_CYCLE_PHASES) / _CYCLE_PHASES)
    u, v = cm.to_normal_form(kappa, gamma, states[:, 0], states[:, 2])
    return pred, orbit, states, np.hypot(u, v)


def _run_limit_cycle(p: dict, out: _Outputs) -> dict:
    import numpy as np

    from . import cycles
    from .semiclassics import TRAJECTORY_HEADER, sample_times

    period_h = 2.0 * math.pi / closed_forms.hopf_frequency(p["kappa"], p["gamma"])
    times = sample_times(0.0, p["t_periods"] * period_h,
                         max(2000, int(p["t_periods"] * 60)))  # 60 samples per period
    pred, orbit, states, radius = _collocated_cycle(p["kappa"], p["gamma"], p["delta_eps"])
    nf_amp = float(radius.mean())
    doc = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "delta_epsilon": p["delta_eps"],
        "measured": {
            "period": orbit.period,
            "amplitude_beta_r": 0.5 * float(np.ptp(states[:, 0])),
            "amplitude_alpha_r": 0.5 * float(np.ptp(states[:, 2])),
            "mean_beta_i": float(states[:, 1].mean()),
            "mean_alpha_i": float(states[:, 3].mean()),
            "converged": True,  # a cycle that does not converge exits 2
            "normal_form_amplitude": nf_amp,
            "n_modes": orbit.n_modes,
            "newton_iterations": orbit.newton_iterations,
            "multipliers": sorted(np.abs(cycles.floquet_multipliers(orbit)[1:]).tolist(),
                                  reverse=True),
            "closure": cycles.closure(orbit),
        },
        "predicted": {
            "amplitude_A": pred.amplitude_A,
            "amplitude_beta_r": pred.amplitude_beta_r,
            "period": period_h,
            "omega_h": pred.omega_h,
            "beta_i_const": pred.beta_i_const,
            "alpha_i_const": pred.alpha_i_const,
        },
        "relative_errors": {
            "amplitude": abs(nf_amp - pred.amplitude_A) / pred.amplitude_A,
            "period": abs(orbit.period - period_h) / period_h,
        },
    }
    _write_json(out("limit_cycle.json"), doc)
    write_csv(out("limit_cycle_trajectory.csv"), TRAJECTORY_HEADER,
              np.column_stack([times, orbit(times)]).tolist())
    return doc


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _peak_or_note(result, i: int, j: int) -> dict:
    from . import noise

    try:
        return asdict(noise.spectral_peak(result, i, j))
    except DomainError as exc:
        return {"note": str(exc)}


def _run_spectrum(p: dict, out: _Outputs) -> dict:
    from . import noise

    params = SystemParams(kappa=p["kappa"], gamma=p["gamma"], epsilon=p["epsilon"])
    model = noise.linear_noise_model(params)
    result = noise.spectrum_scan(model, p["omega_min"], p["omega_max"], p["n_points"])
    extra = [e for e in p["elements"] if e != (2, 2)]
    noise.spectrum_to_csv(result, out("spectrum.csv"), extra_pairs=extra)
    summary = {
        "kappa": p["kappa"],
        "gamma": p["gamma"],
        "epsilon": p["epsilon"],
        "epsilon_h": closed_forms.hopf_threshold(p["kappa"], p["gamma"]).epsilon_h,
        "peaks": {f"S{i + 1}{j + 1}": _peak_or_note(result, i, j)
                  for i, j in [(2, 2)] + extra},
    }
    _write_json(out("spectrum_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# phase-diffusion
# ---------------------------------------------------------------------------

def _run_phase_diffusion(p: dict, out: _Outputs) -> dict:
    from . import stochastic

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
    analytic = closed_forms.phase_diffusion_constant(p["kappa"], p["delta_eps"])
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
    """One (kappa, gamma) panel: collocated and predicted orbits per delta-eps, as (t, state)
    rows, and the (category, message) of each warning raised on the way."""
    with warnings.catch_warnings(record=True) as log:
        panel = _figure1_orbits(*task)
    return panel, [(w.category, str(w.message)) for w in log]


def _figure1_orbits(kappa, gamma, fracs):
    import numpy as np

    hp = closed_forms.hopf_threshold(kappa, gamma)
    panel = []
    for frac in fracs:
        deps = frac * hp.epsilon_h
        if deps == 0.0:
            fp = closed_forms.fixed_point(
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
        pred, orbit, _, radius = _collocated_cycle(kappa, gamma, deps)
        ts = np.linspace(0.0, orbit.period, 61)  # 60 samples a period, as limit-cycle writes
        ts_h = np.linspace(0.0, 2.0 * math.pi / pred.omega_h, 241)
        panel.append({
            "delta_eps": deps,
            "numerical": np.column_stack([ts, orbit(ts)]),
            "predicted": np.column_stack([ts_h, pred.orbit(ts_h)]),
            "overlap": float(np.mean(np.abs(radius - pred.amplitude_A)) / pred.amplitude_A),
            "period": orbit.period,
        })
    return panel


def _run_figure1(p: dict, out: _Outputs) -> None:
    from .semiclassics import TRAJECTORY_HEADER

    tasks = [(k, g, tuple(p["delta_eps_fracs"])) for k, g in p["pairs"]]
    if p["jobs"] > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a start-up cost

        with ProcessPoolExecutor(max_workers=min(p["jobs"], len(tasks))) as ex:
            results = list(ex.map(_figure1_panel, tasks))
    else:
        results = [_figure1_panel(task) for task in tasks]
    panels = [panel for panel, _ in results]
    for _, log in results:  # raised again here, where main reports them, from any worker
        for category, message in log:
            warnings.warn(message, category)

    summary = []
    for idx, ((kappa, gamma), panel) in enumerate(zip(p["pairs"], panels)):
        curves, data_files = [], []
        for q, item in enumerate(panel):
            num_name = f"figure1_panel{idx}_deps{q}_numerical.csv"
            pred_name = f"figure1_panel{idx}_deps{q}_predicted.csv"
            write_csv(out(num_name), TRAJECTORY_HEADER, item["numerical"].tolist())
            write_csv(out(pred_name), TRAJECTORY_HEADER, item["predicted"].tolist())
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
    import numpy as np

    from . import noise

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
        "omega_h": closed_forms.hopf_frequency(p["kappa"], p["gamma"]),
        "epsilon_h": closed_forms.hopf_threshold(p["kappa"], p["gamma"]).epsilon_h,
        "peaks": peaks,
    }
    _write_json(out("figure2_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Grid points (--kappa-grid times --gamma-grid) above which ``sweep``
#: refuses to run: a 500 x 500 grid.  Each grid is checked before its list
#: is built and the product before any point is evaluated.  10^5 points of
#: all seven quantities took 2.1 s, peaked at 17 MB and wrote 17.6 MB on a
#: 2-core host; rows are written as they are evaluated.
MAX_SWEEP_POINTS = 250_000

#: Largest ``spectrum`` and ``figure2`` ``--n-points``: a scan holds about
#: 1 KB a point; a 10^5-point ``spectrum`` peaked at 129 MB RSS and took
#: 1.2 s on a 2-core host.
MAX_SPECTRUM_POINTS = 100_000

#: Each sweep quantity as a function of (kappa, gamma, delta_eps).
_SWEEP_QUANTITIES = {
    "epsilon_h": lambda k, g, de: closed_forms.hopf_threshold(k, g).epsilon_h,
    "omega_h": lambda k, g, de: closed_forms.hopf_frequency(k, g),
    "d": lambda k, g, de: closed_forms.radial_growth_rate(k, g),
    "a": lambda k, g, de: closed_forms.lyapunov_coefficient(k, g),
    "beta_i0h": lambda k, g, de: closed_forms.hopf_threshold(k, g).beta_i0h,
    "alpha_i0h": lambda k, g, de: closed_forms.hopf_threshold(k, g).alpha_i0h,
    "d_phi": lambda k, g, de: closed_forms.phase_diffusion_constant(k, de, gamma=g).value,
}


def _sweep_rows(p: dict, warned: dict):
    """Yield the grid rows as they are evaluated, counting their warnings in ``warned``.

    ``warned`` maps each warning site (category, file, line) to its first
    message and the number of points at which it fired.  The interpreter's
    warning filters still apply: ``-W error`` makes a warning fail the
    sweep, and ``-W ignore`` leaves nothing to record.
    """
    for kappa in p["kappa_grid"]:
        for gamma in p["gamma_grid"]:
            with warnings.catch_warnings(record=True) as log:
                row = [kappa, gamma] + [_SWEEP_QUANTITIES[q](kappa, gamma, p["delta_eps"])
                                        for q in p["quantities"]]
            sites = set()
            for w in log:
                site = (w.category.__name__, w.filename, w.lineno)
                if site not in sites:
                    sites.add(site)
                    warned.setdefault(site, [str(w.message), 0])[1] += 1
            yield row


def _run_sweep(p: dict, out: _Outputs) -> None:
    warned = {}
    write_csv(out("sweep.csv"), ["kappa", "gamma"] + p["quantities"], _sweep_rows(p, warned))
    points = len(p["kappa_grid"]) * len(p["gamma_grid"])
    print(f"wrote sweep.csv ({points} rows)")
    # One line per warning site, not one per grid point.
    for (category, _, _), (message, count) in warned.items():
        print(f"selfpulse sweep: {category} at {count} of {points} points, first: {message}",
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


def _linspace(lo: float, hi: float, count: int) -> list:
    """``count`` evenly spaced floats from lo to hi, bit for bit those of numpy's ``linspace``."""
    delta = hi - lo
    if count == 1:
        return [0.0 * delta + lo]
    step = delta / (count - 1)
    if step == 0.0:  # numpy divides first where the step underflows
        values = [i / (count - 1) * delta + lo for i in range(count)]
    else:
        values = [i * step + lo for i in range(count)]
    values[-1] = hi
    return values


def _grid(text: str) -> list:
    lo, hi, count = text.split(":")
    if int(count) < 1:
        raise ValueError("the grid is empty")
    if int(count) > MAX_SWEEP_POINTS:  # refused before its list is built
        raise ValueError(f"a sweep evaluates at most {MAX_SWEEP_POINTS} points "
                         "over --kappa-grid times --gamma-grid")
    return _linspace(_float(lo), _float(hi), int(count))


def _names(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _elements(text: str) -> list:
    labels = _names(text)
    if any(len(tok) != 2 or not set(tok) <= set("1234") for tok in labels):
        raise ValueError("labels are two digits from 1 to 4")
    if len(set(labels)) < len(labels):  # a repeat would write its columns twice
        raise ValueError("a label repeats")
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
    "limit-cycle": (_run_limit_cycle, "collocate the settled cycle above threshold"),
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
    _Option("simulate", "--rel-tol", _float, 1e-9),
    _Option("simulate", "--abs-tol", _float, 1e-12),
    _Option("limit-cycle phase-diffusion", "--delta-eps", _float, None, *_POSITIVE),
    _Option("sweep", "--delta-eps", _float, 0.0, help="required > 0 for d_phi"),
    _Option("limit-cycle", "--t-periods", _float, 150.0, *_POSITIVE,
            help="span of limit_cycle_trajectory.csv, in periods 2 pi / omega_h"),
    _Option("spectrum figure2", "--omega-min", _float, -2.0),
    _Option("spectrum figure2", "--omega-max", _float, 2.0),
    _Option("spectrum figure2", "--n-points", int, 2001, lambda v: 2 <= v <= MAX_SPECTRUM_POINTS,
            f"must lie in [2, {MAX_SPECTRUM_POINTS}]"),
    _Option("spectrum", "--elements", _elements, "33", help="one-based labels, e.g. '33,11'"),
    _Option("phase-diffusion", "--mode", str, "reduced",
            lambda v: v in ("reduced", "full"), "must be reduced or full"),
    _Option("phase-diffusion", "--noise-scale", _float,
            lambda p: 1.0 if p["mode"] == "reduced" else 1e-3, *_NON_NEGATIVE),
    _Option("phase-diffusion", "--n-ensemble", int, 500,
            lambda v: v >= 100, "must be >= 100 for a meaningful fit"),
    _Option("phase-diffusion", "--dt", _float,
            lambda p: closed_forms.default_cycle_dt(p["kappa"], p["gamma"]), *_POSITIVE),
    _Option("phase-diffusion", "--t-final", _float, 80.0, *_POSITIVE),
    _Option("phase-diffusion", "--burn-in", _float,
            lambda p: 0.0 if p["mode"] == "reduced" else 10.0, *_NON_NEGATIVE),
    _Option("figure1", "--pairs", _pairs, "1.0,0.0;1.0,0.1;0.5,0.0;0.5,0.5", *_NON_EMPTY,
            help="'k1,g1;k2,g2;...'"),
    _Option("figure1", "--delta-eps-fracs", _floats, "0.05,0.1,0.2",
            lambda v: v and min(v) >= 0, "must be non-empty and >= 0",
            help="fractions of epsilon_h"),
    _Option("figure2", "--eps-list", _floats, "0.01,0.05,0.13",
            lambda v: v and len({f"{eps:g}" for eps in v}) == len(v),  # one file per label
            "must be non-empty drives distinct to 6 significant digits",
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
    if args.command == "sweep":
        points = len(p["kappa_grid"]) * len(p["gamma_grid"])
        if points > MAX_SWEEP_POINTS:
            raise DomainError(f"--kappa-grid times --gamma-grid is {points} points, "
                              f"more than the {MAX_SWEEP_POINTS} a sweep evaluates")
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


@contextlib.contextmanager
def _one_line_warnings(command: str):
    """Print each warning of a block that completes as one stderr line, as ``sweep`` does.

    The interpreter's warning filters still apply: ``-W error`` raises the
    warning, which ``main`` refuses in one line, and ``-W ignore`` prints nothing.
    """
    with warnings.catch_warnings(record=True) as log:
        yield
    for w in log:
        print(f"selfpulse {command}: {w.category.__name__}: {w.message}", file=sys.stderr)


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
        with _one_line_warnings(args.command):
            report = _COMMANDS[args.command][0](p, outputs)
        wall = time.monotonic() - start
        if report is not None:
            _echo(report, p["format"])
        params = {k: str(v) if isinstance(v, complex) else v for k, v in p.items()}
        _write_manifest(out, args.command, params, p["seed"], canonical_argv, outputs.names,
                        wall)
    except OSError as exc:  # an output or the manifest cannot be written; names the path
        print(f"selfpulse {args.command}: {exc}", file=sys.stderr)
        return 1
    except (SelfPulseError, ArithmeticError) as exc:
        print(f"selfpulse {args.command}: {exc}", file=sys.stderr)
        return 2
    except Warning as exc:  # promoted to an error by -W error or PYTHONWARNINGS=error
        print(f"selfpulse {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
