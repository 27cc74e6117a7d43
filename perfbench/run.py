"""selfpulse benchmark: cold-CLI workloads, end-to-end metrics and a traced run.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload quick --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every operation is a cold subprocess run one after another: ``python -m
selfpulse <command>``, or ``python perfbench/libstep.py`` for the library
step.  A pass runs all operations of a workload once; passes repeat while
another one is predicted to end within --seconds (at least one runs).  The
first pass's outputs are checked against independent references and every
later pass must reproduce them byte for byte (the manifest's wall_time_s
aside).

--trace 0 reports the end-to-end metrics: setup_s (median cold
``python -m selfpulse --version``), and per pass wall_s, cpu_s (children's
user+sys from os.wait4), peak_rss_mb (largest child ru_maxrss), each as the
median over passes, plus ref_err_ratio (largest |value - reference| /
tolerance over the checks that do not depend on the seed).

--trace 1 alternates untraced passes with passes whose operations run under
tracer.py, and reports per-layer self times and counts, the import-time
breakdown of set-up, and trace.overhead_s (traced minus untraced wall_s).

The last line of standard output is the JSON result; the line before it
holds the full report, which is also written to .bench_work/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import selftest  # noqa: E402
import stats  # noqa: E402

SPEC_PATH = HERE.parent / "BENCHMARK.json"  # names and units of the metrics to report

SETUP_REPS = 5
IMPORT_REPS = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within three minutes


class Runner:
    """Spawns cold child processes and collects their wall time and rusage."""

    def __init__(self, root: Path, work: Path, seed: int, deadline: float):
        self.root = root
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.env["TMPDIR"] = str(work)

    def spawn(self, argv, stdout: Path, stderr: Path) -> dict:
        """Run ``argv`` to completion (killed at the run deadline)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            lock = threading.Lock()
            exited = False

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                # Wait without reaping, so the pid cannot be reused while kill() may run.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:  # interrupted or terminated: take the child down too
                kill()
                raise
            finally:
                wall = time.perf_counter() - start
                with lock:
                    exited = True
                timer.cancel()
                timer.join()
                _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "utime": ru.ru_utime,
                "stime": ru.ru_stime, "maxrss_kb": ru.ru_maxrss}

    def python(self, args, tag: str) -> dict:
        return self.spawn([sys.executable, *args], self.work / f"{tag}.stdout",
                          self.work / f"{tag}.stderr")


def op_argv(op, out: Path, seed: int) -> list:
    if op.library:
        return [str(HERE / "libstep.py"), "--out", str(out), "--seed", str(seed)]
    return ["-m", "selfpulse", *op.argv, "--out", str(out), "--seed", str(seed)]


def traced_argv(op, out: Path, seed: int, spans: Path) -> list:
    args = op_argv(op, out, seed)
    kind = ["lib"] if op.library else ["cli"]
    return [str(HERE / "tracer.py"), str(spans), *kind, *(args if op.library else args[2:])]


def digest(out: Path) -> dict:
    """Content hash of every output file; manifests without wall_time_s."""
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        result[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return result


def run_pass(runner, ops, index: int, traced: bool) -> dict:
    pass_dir = runner.work / f"pass{index}"
    pass_dir.mkdir()
    children, results = [], []
    start = time.perf_counter()
    for op in ops:
        out = pass_dir / op.name
        spans = pass_dir / f"{op.name}.spans.json"
        args = traced_argv(op, out, runner.seed, spans) if traced else op_argv(
            op, out, runner.seed)
        child = runner.python(args, f"pass{index}-{op.name}")
        children.append(child)
        results.append({"op": op.name, "rc": child["rc"], "wall": child["wall"],
                        "rss_mb": child["maxrss_kb"] / 1024.0, "out": out,
                        "spans": spans if traced else None})
    wall = time.perf_counter() - start
    return {"wall": wall, "traced": traced, "results": results,
            **stats.aggregate_rusage(children)}


def evaluate(ops, passes) -> tuple:
    """Check pass 1 against the references and later passes against pass 1.

    Returns (attempted, failures, checks): failures are (operation, message)
    pairs and checks maps an op name to its Check records from pass 1.
    """
    failures, checks = [], {}
    reference = {}
    attempted = 0
    for p_idx, p in enumerate(passes):
        for op, res in zip(ops, p["results"]):
            attempted += 1
            where = f"pass {p_idx + 1} {op.name}"
            if res["rc"] != 0:
                failures.append((where, f"exit code {res['rc']}"))
                continue
            try:
                got = digest(res["out"])
            except (OSError, ValueError) as exc:
                failures.append((where, f"unreadable outputs: {exc}"))
                continue
            if op.name not in reference:
                reference[op.name] = got
                try:
                    checks[op.name] = op.check(res["out"])
                except Exception as exc:  # a malformed output fails the operation
                    failures.append((where, f"output check could not run: {exc!r}"))
                    continue
                bad = [c for c in checks[op.name] if not c.ratio <= 1.0]
                if bad:
                    failures.append((where, "outside tolerance: " + ", ".join(
                        f"{c.name}={c.ratio:.3g}" for c in bad)))
            elif got != reference[op.name]:
                changed = sorted(k for k in set(got) | set(reference[op.name])
                                 if got.get(k) != reference[op.name].get(k))
                failures.append((where, f"outputs differ from the first pass: {changed}"))
    return attempted, failures, checks


def ratio_summary(checks: dict, stochastic: bool) -> float:
    return stats.largest_finite(c.ratio for cs in checks.values() for c in cs
                                if c.stochastic == stochastic)


def measure_setup(runner, reps: int) -> list:
    walls = []
    for i in range(reps):
        child = runner.python(["-m", "selfpulse", "--version"], f"setup{i}")
        if child["rc"] != 0:
            err = (runner.work / f"setup{i}.stderr").read_text(errors="replace").strip()
            raise SystemExit(f"benchmark: `python -m selfpulse --version` failed "
                             f"(exit {child['rc']}): {err[-500:]}")
        walls.append(child["wall"])
    return walls


def measure_imports(runner, reps: int) -> dict:
    samples = []
    for i in range(reps):
        tag = f"importtime{i}"
        child = runner.python(["-X", "importtime", "-c", "import selfpulse.cli"], tag)
        if child["rc"] != 0:
            err = (runner.work / f"{tag}.stderr").read_text(errors="replace").strip()
            raise SystemExit(f"benchmark: importing selfpulse.cli failed: {err[-500:]}")
        samples.append(stats.parse_importtime(
            (runner.work / f"{tag}.stderr").read_text(encoding="utf-8")))
    return {key: stats.median([s[key] for s in samples]) for key in samples[0]}


def schedule(runner, ops, seconds: float, traced_pairs: bool) -> list:
    """Run passes (or untraced/traced pairs, alternating which goes first)
    while the next is predicted to end within ``seconds`` of the first
    start; always at least one.  The first pass is untraced."""
    passes = []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        order = (False,) if not traced_pairs else (
            (False, True) if len(passes) % 4 == 0 else (True, False))
        for traced in order:
            passes.append(run_pass(runner, ops, len(passes) + 1, traced=traced))
        took = time.perf_counter() - batch_start
        now = time.perf_counter()
        if now - start + took > seconds or time.monotonic() + 2 * took > runner.deadline:
            return passes


def layer_metrics(traced_passes, imports: dict, overhead: float, names) -> tuple:
    """Per-layer metrics from the traced passes; also returns count mismatches."""
    busy_runs, count_runs = [], []
    for p in traced_passes:
        spans_all, counts = [], {}
        for res in p["results"]:
            doc = json.loads(Path(res["spans"]).read_text(encoding="utf-8"))
            offset = len(spans_all)
            for s in doc["spans"]:
                parent = s["parent"]
                spans_all.append({**s, "parent": None if parent is None else parent + offset})
            for key, val in doc["counts"].items():
                counts[key] = counts.get(key, 0) + val
        busy_runs.append(stats.busy_by_name(spans_all))
        count_runs.append(counts)
    mismatches = [i + 2 for i, c in enumerate(count_runs[1:]) if c != count_runs[0]]
    counts = count_runs[0]

    def busy(name):
        return stats.median([b.get(name, 0.0) for b in busy_runs])

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values = {
        "import.total_s": imports["total_s"],
        "import.scipy_s": imports["scipy_s"],
        "import.selfpulse_self_s": imports["selfpulse_self_s"],
        "semiclassics.detect_limit_cycle.converged_ratio": ratio(
            "semiclassics.detect_limit_cycle.converged", "semiclassics.detect_limit_cycle.calls"),
        "stochastic.simulate_limit_cycle_noise.excluded_ratio": ratio(
            "stochastic.simulate_limit_cycle_noise.excluded",
            "stochastic.simulate_limit_cycle_noise.members"),
        "cli.main.self_s": busy("cli.main"),
        "trace.overhead_s": overhead,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".busy_s"):
            values[name] = busy(name[:-len(".busy_s")])
        else:
            values[name] = counts.get(name, 0)
    return {name: values[name] for name in names}, mismatches


def blas_record() -> dict:
    """BLAS build and its thread count, read from the library numpy loaded."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1].lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def steal_seconds() -> float:
    """Host-wide time the hypervisor gave to other guests, from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def git_commit(root: Path):
    """Commit of a git checkout; None where there is no git metadata."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    ref_path = root / ".git" / ref[len("ref: "):]
    return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    blas = blas_record()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_within_nproc": blas["threads"] is not None and blas["threads"] <= nproc,
        "cpu_model": cpu,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def run_workload(name: str, ops, seed: int, seconds: float, trace: bool, root: Path,
                 env_record: dict, spec: dict) -> dict:
    work = root / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(root, work, seed, time.monotonic() + RUN_LIMIT_S)
    load_before, steal_before = os.getloadavg(), steal_seconds()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        if trace:
            imports = measure_imports(runner, IMPORT_REPS)
            passes = schedule(runner, ops, seconds, traced_pairs=True)
        else:
            setup = measure_setup(runner, SETUP_REPS)
            passes = schedule(runner, ops, seconds, traced_pairs=False)
        attempted, failures, checks = evaluate(ops, passes)
        plain = [p for p in passes if not p["traced"]]
        walls = [p["wall"] for p in plain]
        if trace:
            traced = [p for p in passes if p["traced"]]
            overhead = stats.median([p["wall"] for p in traced]) - stats.median(walls)
            kind = "per_layer"
            metrics, mismatches = layer_metrics(traced, imports, overhead,
                                                [m["name"] for m in spec[kind]])
            failures += [(f"traced pass {i}", "counts differ from the first traced pass")
                         for i in mismatches]
        else:
            kind = "end_to_end"
            metrics = {
                "setup_s": stats.median(setup),
                "wall_s": stats.median(walls),
                "cpu_s": stats.median([p["cpu_s"] for p in plain]),
                "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in plain]),
                "ref_err_ratio": ratio_summary(checks, stochastic=False),
            }
            report["setup_s"] = stats.timing_summary(setup)
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if set(metrics) != set(units):
            raise RuntimeError(f"{kind} metrics {sorted(metrics)} do not match BENCHMARK.json")
        failed_ops = len({where for where, _ in failures})
        report.update({
            "passes": len(plain),
            "wall_s": stats.timing_summary(walls),
            "pass_wall_s": walls,
            "pass_cpu_s": [p["cpu_s"] for p in plain],
            "op_wall_s": {op.name: stats.timing_summary([p["results"][i]["wall"] for p in plain])
                          for i, op in enumerate(ops)},
            "op_peak_rss_mb": {op.name: stats.median([p["results"][i]["rss_mb"] for p in plain])
                               for i, op in enumerate(ops)},
            "failed_frac": failed_ops / attempted,
            "failures": [f"{where}: {msg}" for where, msg in failures],
            "stat_err_ratio": ratio_summary(checks, stochastic=True),
            "checks": {op: {c.name: c.ratio for c in cs} for op, cs in checks.items()},
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "steal_s": steal_seconds() - steal_before,
            "environment": env_record,
        })
        report["result"] = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed_ops,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        (root / ".bench_work" / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(reports) -> None:
    for rep in reports:
        print(f"== {rep['workload']} (seed {rep['seed']}, {rep['passes']} passes, "
              f"failed_frac {rep['failed_frac']:.3g}, stat_err_ratio {rep['stat_err_ratio']:.3g})")
        for name, m in rep["result"]["metrics"].items():
            print(f"  {name:58s} {m['value']:>14.6g} {m['unit']}")
        wall = rep["wall_s"]
        tail = (f"p{wall['tail_percentile']:.3g} {wall['tail_value']:.6g} s"
                if wall["tail_percentile"] is not None else
                f"no percentile has {stats.TAIL_SAMPLES} samples beyond it")
        print(f"  wall_s over {wall['samples']} passes: median {wall['median']:.6g} s, {tail}")
        for failure in rep["failures"]:
            print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="selfpulse benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "selfpulse" / "__init__.py").is_file():
        print(f"benchmark: no selfpulse source tree at {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print("benchmark: BENCHMARK.json is missing at the checkout root", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if not 0 <= args.seed < 2**64:
        print("benchmark: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("benchmark: --seconds must be > 0", file=sys.stderr)
        return 2
    selftest.run()

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    env_record = environment(root, args.seed)
    reports = [run_workload(n, workloads.WORKLOADS[n], args.seed, args.seconds, bool(args.trace),
                            root, env_record, spec) for n in names]
    print_table(reports)
    if len(reports) == 1:
        print(json.dumps({"report": reports[0]}, default=str))
        print(json.dumps(reports[0]["result"]))
    else:
        results = [r["result"] for r in reports]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rep['workload']}.{k}": v for rep in reports
                        for k, v in rep["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
