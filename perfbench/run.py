"""jumpsqueeze benchmark: runs one workload in this process and prints
its metrics.

    python3 perfbench/run.py --workload figure_all --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory and driven
only through ``jumpsqueeze.cli.main`` (in-process) and public functions.
A run sets up, warms up, then times whole passes over the workload's
work list until ``--seconds`` of pass time have been measured; each pass
is checked for correctness after its timing stops.  Times are reported
at a reference host speed (see ``hostspeed.py``); the raw times are in
the report line.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the run measures half its time untraced and half traced and carries the
per-layer metrics.  The line before it is a JSON report with the
environment, gates and sample counts.  Exit status is 1 when any
correctness gate misses, 2 when the package cannot be found.
"""

import time

from hostspeed import HostSpeed

SPEED = HostSpeed()
SPEED.start()
_SETUP_MARK = SPEED.mark()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_trace"

BLAS_THREADS = 1
SETUP_SAMPLES = 5      # this process plus four probe processes
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
}

# latency of one in-process CLI call, reported (not gated) per workload
CALL_LATENCY = {"figure_all": "figure_call_s",
                "protocol_batch": "protocol_run_s",
                "selfcheck_grid": "selfcheck_call_s"}


def _blas_threads():
    """Pin BLAS to one thread before numpy loads.

    On a shared two-core machine, two OpenBLAS threads made dim-64
    protocol runs ten times slower (11 ms -> 116 ms median, 0.9 s worst)
    and dim-256 runs twice as slow, with a spread that swamps any code
    change; only dim 512 gained.  One thread keeps runs comparable.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def _call(cli, argv):
    """One in-process CLI call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is an item failure
        rc = type(exc).__name__
        err.write(f"{rc}: {exc}\n")
    return Outcome(rc, out.getvalue(), err.getvalue(),
                   time.perf_counter() - started)


def set_up(workload_name, seed, workdir):
    """Import, generate pass 0's inputs and warm up.  Everything here is
    counted in setup_s."""
    sys.path.insert(0, str(SRC))
    import jumpsqueeze
    import jumpsqueeze.cli

    workload = WORKLOADS[workload_name](jumpsqueeze, workdir, seed)
    first_items = workload.prepare(0)
    _warm_up(jumpsqueeze, Path(workdir) / "warmup")
    return jumpsqueeze, workload, first_items


def _warm_up(js, workdir):
    """One small protocol run and one cheap figure, so lazy imports and
    first-call costs land before the first timed pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    trap = js.config.load_config().trap
    proto = str(workdir / "protocol.json")
    js.protocol.save_protocol(
        js.protocol.builtin_protocol("amplify", trap, alpha_i=0.5, r=0.2),
        proto)
    for argv in (["protocol", "run", proto],
                 ["--out", str(workdir), "figure", "fig2b"]):
        outcome = _call(js.cli, argv)
        if outcome.rc != 0:
            raise RuntimeError(
                f"warm-up {argv} failed: {outcome.stderr.strip()}")
    shutil.rmtree(workdir, ignore_errors=True)


def _probe_setup(workload_name, seed):
    """Set-up times of fresh processes, each doing what this one did."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload_name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


class Measurement:
    """Timed passes of one run, with their gates."""

    def __init__(self, js, workload, first_items, tracer=None):
        self.js = js
        self.workload = workload
        self.tracer = tracer
        self.next_index = 0
        self.prepared = {0: first_items}
        self.attempted = 0
        self.failures = []

    def run(self, budget_s, traced=False):
        """Run whole passes until ``budget_s`` of raw pass time is
        measured.  Return per-pass raw wall times, per-pass wall and cpu
        times at the reference speed, and per-call latencies at the
        reference speed."""
        walls, ref_walls, ref_cpus, calls = [], [], [], []
        while not walls or sum(walls) < budget_s:
            index = self.next_index
            self.next_index += 1
            items = self.prepared.pop(index, None) or \
                self.workload.prepare(index)
            if self.tracer is not None:
                self.tracer.enabled = traced
            outcomes = []
            wall = ref_wall = ref_cpu = 0.0
            for item in items:
                span = self.tracer.open_span(item.span) \
                    if self.tracer is not None else -1
                start = SPEED.mark()
                cpu0, t0 = time.process_time(), time.perf_counter()
                outcomes.append(_call(self.js.cli, item.argv))
                seconds = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                end = SPEED.mark()
                if self.tracer is not None:
                    self.tracer.close_span(span)
                item_wall, item_cpu = SPEED.at_reference(start, end,
                                                         seconds, cpu)
                wall += seconds
                ref_wall += item_wall
                ref_cpu += item_cpu
                calls.append(item_wall)
            if self.tracer is not None:
                self.tracer.enabled = False
            messages = self.workload.check(index, items, outcomes)
            self.workload.finish_pass(index)
            self.attempted += len(items)
            self.failures += [m for m in messages if m]
            walls.append(wall)
            ref_walls.append(ref_wall)
            ref_cpus.append(ref_cpu)
        return walls, ref_walls, ref_cpus, calls


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _openblas():
    """(version, threads) of the OpenBLAS numpy loaded."""
    import ctypes
    import numpy as np
    version = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        version = deps["blas"].get("version")
    except (TypeError, KeyError):
        pass
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return version, threads


def _git_sha():
    """HEAD's sha read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpsqueeze").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, nproc):
    import numpy
    import scipy
    blas_version, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "openblas_threads": blas_threads,
        "nproc": nproc,
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure_all", "protocol_batch",
                                 "selfcheck_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "jumpsqueeze" / "__init__.py").is_file():
        print(f"error: no jumpsqueeze package under {SRC}", file=sys.stderr)
        return 2
    nproc = _blas_threads()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        js, workload, first_items = set_up(args.workload, args.seed, workdir)
        raw_s = time.perf_counter() - _T0
        setup = {"raw_s": raw_s, "ref_s": SPEED.at_reference(
            _SETUP_MARK, SPEED.mark(), raw_s, 0.0)[0]}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        SPEED.stop()
        setups = [setup] + _probe_setup(args.workload, args.seed)
        SPEED.start()
        return _measure(args, nproc, js, workload, first_items, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _measure(args, nproc, js, workload, first_items, setups):
    tracer = Tracer() if args.trace else None
    bench = Measurement(js, workload, first_items, tracer)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, ref_walls, ref_cpus, calls = bench.run(budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"env": environment(args, nproc)}
    tail = tail_percentile(calls)
    report["samples"] = {
        "passes": len(walls), "calls": len(calls), "setup": len(setups),
        "pass_raw_s": walls, "pass_ref_s": ref_walls,
        "setup_raw_s": [s["raw_s"] for s in setups],
        "setup_ref_s": [s["ref_s"] for s in setups]}
    report["raw"] = {"wall_s": statistics.median(walls),
                     "setup_s": statistics.median(report["samples"]
                                                  ["setup_raw_s"])}
    prefix = CALL_LATENCY[args.workload]
    report["latency"] = {  # at the reference speed
        f"{prefix}.p50": _metric(statistics.median(calls), "s"),
        f"{prefix}.tail": tail and _metric(tail[1], "s"),
        "tail_percentile": tail and tail[0],
        "samples": len(calls),
    }
    end_to_end = {
        "wall_ref_s": statistics.median(ref_walls),
        "setup_s": statistics.median(report["samples"]["setup_ref_s"]),
        "cpu_ref_s": statistics.median(ref_cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: _metric(end_to_end[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    if args.trace:
        report["untraced"] = metrics
        tracer.install(js)
        try:
            _, traced_walls, _, _ = bench.run(budget, traced=True)
        finally:
            tracer.uninstall()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        report["samples"]["traced_passes"] = len(traced_walls)
        values = layers.compute(
            tracer, len(traced_walls), ref_walls, traced_walls,
            workload.report.get("figures.csv_byte_identical"))
        metrics = {name: _metric(values[name], unit)
                   for name, unit in layers.per_layer_units().items()}

    failed = len(bench.failures)
    report["failed_ratio"] = failed / bench.attempted
    report["failures"] = bench.failures[:20]
    report["gates"] = workload.report
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        SPEED.stop()  # a SIGALRM left pending would kill the exit
    sys.exit(status)
