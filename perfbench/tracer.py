"""Traced run of one operation, in its own cold process.

Wraps selfpulse's public functions at every module attribute that holds
them, which is where their callers look them up (``cli`` calls
``semiclassics.integrate``; ``stochastic`` imported ``lyapunov_coefficient``
by name), runs the operation unchanged in this process, and writes the spans
and counts to JSON when it ends.

    python perfbench/tracer.py SPANS.json cli <selfpulse argv...>
    python perfbench/tracer.py SPANS.json lib <script> <script argv...>
"""

from __future__ import annotations

import inspect
import json
import os
import runpy
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def run(self, name, fn, args, kwargs):
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _member_steps(config):
    return config.n_ensemble * (int(round(config.burn_in / config.dt)) + config.n_steps)


# Hooks add the benchmark's own counts from a call's arguments and result.
def _integrate(c, a, res):
    c["semiclassics.integrate.calls"] += 1
    if res.dense is not None:
        c["semiclassics.integrate.steps"] += len(res.dense.ts) - 1


def _detect(c, a, res):
    c["semiclassics.detect_limit_cycle.calls"] += 1
    c["semiclassics.detect_limit_cycle.crossings"] += res.n_crossings
    c["semiclassics.detect_limit_cycle.converged"] += int(res.converged)


def _cycle_noise(c, a, res):
    c["stochastic.simulate_limit_cycle_noise.member_steps"] += _member_steps(a["config"])
    c["stochastic.simulate_limit_cycle_noise.members"] += a["config"].n_ensemble
    c["stochastic.simulate_limit_cycle_noise.excluded"] += res.excluded


def _count(key, amount):
    def hook(c, a, res):
        c[key] += amount(a, res)
    return hook


# (module, attribute, hook); attribute "Class.method" wraps a method.
TARGETS = (
    ("semiclassics", "integrate", _integrate),
    ("semiclassics", "detect_limit_cycle", _detect),
    ("semiclassics", "fixed_point", None),
    ("semiclassics", "Trajectory.to_csv", None),
    ("center_manifold", "cm_report", None),
    ("center_manifold", "lyapunov_coefficient",
     _count("center_manifold.lyapunov_coefficient.calls", lambda a, r: 1)),
    ("center_manifold", "predict_limit_cycle", None),
    ("center_manifold", "to_normal_form", None),
    ("noise", "linear_noise_model", None),
    ("noise", "spectrum_scan", _count("noise.spectrum_scan.points",
                                      lambda a, r: len(r.omega_grid))),
    ("noise", "spectral_peak", None),
    ("noise", "spectrum_to_csv", None),
    ("stochastic", "simulate_limit_cycle_noise", _cycle_noise),
    ("stochastic", "measure_phase_diffusion",
     _count("stochastic.measure_phase_diffusion.resamples", lambda a, r: a["n_bootstrap"])),
    ("stochastic", "phase_record_to_csv", None),
    ("stochastic", "simulate_linear_sde",
     _count("stochastic.simulate_linear_sde.member_steps", lambda a, r: _member_steps(a["config"]))),
    ("stochastic", "estimate_psd", None),
    ("stochastic", "stationary_covariance", None),
    ("svg", "render_svg", _count("svg.render_svg.bytes",
                                 lambda a, r: os.path.getsize(a["path"]))),
)


def _span_wrapper(tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        if name == "stochastic.simulate_limit_cycle_noise":
            span = f"{name}.{_bound(fn, args, kwargs)['mode']}"
        else:
            span = name
        result = tracer.run(span, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counts, _bound(fn, args, kwargs), result)
        return result
    return wrapper


def _counting_wrapper(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _replace(original, wrapper):
    """Point every selfpulse module attribute that holds ``original`` at ``wrapper``."""
    found = 0
    for modname, module in list(sys.modules.items()):
        if modname != "selfpulse" and not modname.startswith("selfpulse."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                found += 1
    return found


def install(tracer):
    import selfpulse.cli  # noqa: F401  (loads every module that holds a reference)

    for modname, attr, hook in TARGETS:
        module = sys.modules[f"selfpulse.{modname}"]
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _span_wrapper(tracer, name, getattr(cls, meth), hook))
            continue
        original = getattr(module, attr)
        if not _replace(original, _span_wrapper(tracer, name, original, hook)):
            raise RuntimeError(f"no module attribute holds {name}")
    semiclassics = sys.modules["selfpulse.semiclassics"]
    _replace(semiclassics.vector_field,
             _counting_wrapper(tracer.counts, "semiclassics.integrate.rhs_evals",
                               semiclassics.vector_field))


def _output_bytes(argv):
    """Bytes of the files a CLI run lists in its manifest (the manifest itself,
    whose wall_time_s varies in length, is left out)."""
    out = Path(argv[argv.index("--out") + 1])
    total = 0
    for manifest in out.glob("*_manifest.json"):
        for name in json.loads(manifest.read_text(encoding="utf-8"))["outputs"]:
            total += (out / name).stat().st_size
    return total


def main(argv) -> int:
    spans_path, kind, *rest = argv
    tracer = Tracer()
    install(tracer)
    if kind == "cli":
        import selfpulse.cli

        rc = tracer.run("cli.main", selfpulse.cli.main, (rest,), {})
        if rc == 0:
            tracer.counts["cli.output_bytes"] += _output_bytes(rest)
    elif kind == "lib":
        sys.argv = list(rest)
        try:
            runpy.run_path(rest[0], run_name="__main__")
            rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    else:
        raise SystemExit(f"unknown operation kind {kind!r}")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
