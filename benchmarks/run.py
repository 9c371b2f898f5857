"""lrdec benchmark: three seeded solves, timed untraced or traced by layer.

One run::

    python3 benchmarks/run.py --workload l2_cube --seed 0 --seconds 30 --trace 0

builds the workload's seeded inputs, then solves its round of problems
repeatedly for about ``--seconds`` seconds (always whole rounds, at least
one), checks every output, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` solves every problem once untraced
and once under the outside-in tracer (``tracer.py``) and reports the
per-layer metrics.  A ``detail`` line before it holds the raw samples,
output digests, the machine and the working set.

Every metric of every workload, with units and the checks, in one go::

    python3 benchmarks/run.py --report --seed 0 --seconds 10

Solves run in one process with one BLAS thread.  The program is imported
from ``src/`` of the checkout this file sits in, and the run fails if
that source tree is missing.  Scratch files go to ``.bench_build/`` in
the checkout and are removed afterwards.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads.  At these sizes a second thread
# gains about 10%, but on a shared 2-vCPU host its spin barriers once turned a
# 1.3 s l1_cube fit into 9.4 s while the single-threaded fit took 1.9 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _units(trace):
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _use_checkout_source():
    """Import lrdec from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "lrdec" / "__init__.py").is_file():
        raise SystemExit(f"error: no lrdec source tree at {src}; run the "
                         f"benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))
    import lrdec
    if Path(lrdec.__file__).resolve().parent != (src / "lrdec").resolve():
        raise SystemExit(f"error: lrdec imported from {lrdec.__file__}, "
                         f"not from {src}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def setup_probe(workload, seed):
    """Time ``import lrdec`` plus building the inputs, in a fresh process."""
    workdir = SCRATCH / f"setup-{workload.name}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        _use_checkout_source()
        workload.build(seed, workdir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(workload, seed, clock):
    """Median over fresh processes of the setup time, rescaled by `clock`."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.start()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        scale = clock.scale()
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{child.stderr}")
        samples.append(_last_json_line(child.stdout)["setup_s"] * scale)
    return statistics.median(samples), samples


class HostClock:
    """Rescales wall times to the reference host speed.

    On the reference machine, a shared 2-vCPU KVM guest, speed drifts by
    20-40% over minutes: one l2_cube round ran at 2.0-2.9 s per fit and
    another, a minute later, at 3.2-3.8 s.  A
    fixed numpy kernel (N-D FFTs, complex products and reductions, a
    batched block solve: the operations the solver spends its time in) is
    timed between consecutive measured intervals, and each interval's
    wall time is scaled by ``REF_S`` over the mean of the kernel times
    just before and just after it.  In a 150 s probe of repeated
    identical fits this cut the interquartile spread from 17% to 8% of
    the median, and the range of 9 s window medians from 31% to 12%.
    """

    # the kernel's median wall time on the reference machine (2-core
    # Xeon, KVM, numpy 2.4.6 with one OpenBLAS thread), so scaled times
    # read as seconds on that machine at its usual speed
    REF_S = 0.076
    REPS = 30
    # a reading older than this is retaken before the next interval
    FRESH_S = 1.0

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.standard_normal((32, 32, 16))
        self._rows = rng.standard_normal((8, 32, 512)) + 0j
        b = rng.standard_normal((32, 24, 24)) + 1j * rng.standard_normal(
            (32, 24, 24))
        self._blocks = b @ b.conj().transpose(0, 2, 1) + 24 * np.eye(24)
        self._rhs = rng.standard_normal((32, 24, 1)) + 0j
        self._last = None  # (kernel seconds, when taken)

    def _kernel_s(self):
        np = self._np
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            spec = np.fft.fftn(self._x)
            np.fft.ifftn(spec * spec.conj())
            np.einsum("mil,mil->il", self._rows.conj(), self._rows)
            np.linalg.solve(self._blocks, self._rhs)
        now = time.perf_counter()
        self._last = (now - t0, now)
        return now - t0

    def start(self):
        """Call right before a measured interval."""
        if self._last is None or \
                time.perf_counter() - self._last[1] > self.FRESH_S:
            self._kernel_s()

    def scale(self):
        """Call right after the interval: wall-to-reference time factor."""
        before = self._last[0]
        return self.REF_S / ((before + self._kernel_s()) / 2)


def _tail(times):
    """Highest whole percentile with at least ten samples above it."""
    n = len(times)
    if n < 20:  # below that the percentile would not exceed the median
        return None
    pct = int(100 * (n - 10) / n)
    return {"percentile": pct,
            "value": statistics.quantiles(times, n=100,
                                          method="inclusive")[pct - 1]}


class Run:
    """One benchmark run: rounds of solves, their checks and samples."""

    def __init__(self, workload, seed, trace, clock):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.clock = clock
        self.attempted = 0
        self.failures = []  # one message per failed attempt
        self.times = []  # wall seconds of each untraced solve
        self.scaled_times = []  # the same, rescaled by the host clock
        self.traced_times = []
        self.first = {}  # problem index -> Outcome of its first solve

    def _solve(self, problem, traced, errors):
        """Timed solve, then its untimed check.

        Returns the outcome (None if the solve or the check raised), the
        wall time and the rescaled time.
        """
        self.clock.start()
        raised = False
        with self.tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = self.workload.solve(problem)
            except Exception:
                errors.append(traceback.format_exc())
                raised = True
            elapsed = time.perf_counter() - t0
        scaled = elapsed * self.clock.scale()
        if raised:
            return None, elapsed, scaled
        try:
            return self.workload.check(problem, result), elapsed, scaled
        except Exception:
            errors.append(traceback.format_exc())
            return None, elapsed, scaled

    def solve_once(self, index, problem):
        self.attempted += 1
        errors = []
        outcome, elapsed, scaled = self._solve(problem, False, errors)
        self.times.append(elapsed)
        self.scaled_times.append(scaled)
        if outcome is not None:
            errors += outcome.failures
            first = self.first.setdefault(index, outcome)
            if outcome.digest != first.digest:
                errors.append("output differs from the first solve of the "
                              "same inputs")
        if self.tracer is not None:
            traced, elapsed, _ = self._solve(problem, True, errors)
            self.traced_times.append(elapsed)
            if outcome is None or traced is None or \
                    traced.digest != outcome.digest:
                errors.append("traced output differs from the untraced "
                              "output")
        if errors:
            message = f"problem {index}: " + "; ".join(errors)
            self.failures.append(message)
            print(message, file=sys.stderr)

    def measure(self, problems, seconds):
        """Whole rounds until another round would pass `seconds`."""
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for index, problem in enumerate(problems):
                self.solve_once(index, problem)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break

    def end_to_end(self, setup_s):
        quality = [o.psnr_db for o in self.first.values()
                   if math.isfinite(o.psnr_db)]
        return {
            "solve_s": statistics.median(self.scaled_times),
            # 0 when no solve produced a PSNR; the failures are reported
            "psnr_db": self.workload.summary(quality) if quality else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - len(self.failures) / self.attempted,
        }

    def per_layer(self):
        """Per-layer work and time, per traced solve.

        Every round repeats the same problems, so counts per solve repeat
        exactly between runs of one seed.  The layer self times
        (``*.self_s``, ``transform.s``, ``solver.block_solve_s``,
        ``solver.cg_self_s``) plus ``trace.unattributed_s`` add up to
        ``trace.solve_s``.
        """
        n = len(self.traced_times)
        keys, counts, layer_self = (self.tracer.keys, self.tracer.counts,
                                    self.tracer.layer_self)

        def calls(key):
            return keys[key].calls / n if key in keys else 0.0

        def total(key):
            return keys[key].total_s / n if key in keys else 0.0

        def layer(name):
            return layer_self.get(name, 0.0) / n

        def count(name):
            return counts.get(name, 0) / n

        cg_solves = calls("solver.cg")
        traced_s = statistics.fmean(self.traced_times)
        untraced_s = statistics.fmean(self.times)
        return {
            "convmodel.forward_model_calls": calls("convmodel.forward_model"),
            "convmodel.forward_model_s": total("convmodel.forward_model"),
            "convmodel.gram_calls": calls("convmodel.gram"),
            "convmodel.gram_builds": count("convmodel.gram_builds"),
            "convmodel.gram_s": total("convmodel.gram"),
            "convmodel.operator_builds": calls("convmodel.operator_build"),
            "convmodel.operator_build_s": total("convmodel.operator_build"),
            "convmodel.filter_spectra": calls("convmodel.filter_spectra"),
            "convmodel.normal_blocks_calls": calls("convmodel.normal_blocks"),
            "convmodel.normal_blocks_s": total("convmodel.normal_blocks"),
            "convmodel.apply_calls": calls("convmodel.apply"),
            "convmodel.apply_s": total("convmodel.apply"),
            "convmodel.adjoint_calls": calls("convmodel.adjoint"),
            "convmodel.adjoint_s": total("convmodel.adjoint"),
            "convmodel.self_s": layer("convmodel"),
            "tensor.kruskal_reconstruct_calls":
                calls("tensor.kruskal_reconstruct"),
            "tensor.kruskal_reconstruct_s":
                total("tensor.kruskal_reconstruct"),
            "tensor.build_q_calls": calls("tensor.build_q"),
            "tensor.build_q_s": total("tensor.build_q"),
            "tensor.self_s": layer("tensor"),
            "transform.nd_calls": calls("transform.nd"),
            "transform.factor_calls": calls("transform.factor"),
            "transform.s": layer("transform"),
            "solver.block_solves": calls("solver.block_solve"),
            "solver.block_solve_s": layer("solver.block_solve"),
            "solver.admm_iters": count("solver.admm_iters"),
            "solver.admm_s": total("solver.admm"),
            "solver.admm_self_s":
                keys["solver.admm"].self_s / n if "solver.admm" in keys
                else 0.0,
            "solver.cg_solves": cg_solves,
            "solver.cg_iters": count("solver.cg_iters"),
            "solver.cg_s": total("solver.cg"),
            "solver.cg_self_s": layer("solver.cg"),
            "solver.cg_budget_exhausted": count("solver.cg_budget_exhausted"),
            # 0 when no CG solve ran
            "solver.cg_converged_frac":
                count("solver.cg_converged") / cg_solves if cg_solves else 0.0,
            "solver.sweeps": count("solver.sweeps"),
            "solver.mode_visits": count("solver.mode_visits"),
            "solver.l2_increase_warnings":
                count("solver.l2_increase_warnings"),
            "solver.self_s": layer("solver"),
            "io.read_s": total("io.read"),
            "io.write_s": total("io.write"),
            "io.bytes_read": count("io.bytes_read"),
            "io.bytes_written": count("io.bytes_written"),
            "io.self_s": layer("io"),
            "cli.self_s": layer("cli"),
            "trace.solve_s": traced_s,
            "trace.untraced_solve_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.unattributed_s":
                traced_s - self.tracer.self_seconds() / n,
            "trace.peak_rss_mb": _peak_rss_mb(),
        }

    def detail(self, setup_samples):
        from machine import machine_info

        info = machine_info()
        working_set = self.workload.working_set()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(self.tracer is not None),
            "solves": len(self.times),
            "solve_times_s": self.times,
            "scaled_solve_times_s": self.scaled_times,
            "solve_tail": _tail(self.scaled_times),
            "traced_times_s": self.traced_times,
            "setup_samples_s": setup_samples,
            "psnr_db": [self.first[i].psnr_db for i in sorted(self.first)],
            "digests": [self.first[i].digest for i in sorted(self.first)],
            "failures": self.failures,
            "trace_counts": dict(self.tracer.counts) if self.tracer else {},
            "machine": info,
            "working_set_bytes": working_set,
            "working_set_fits_llc": bool(info["llc_bytes"]) and max(
                working_set.values()) < info["llc_bytes"],
        }


def run_workload(workload, seed, seconds, trace):
    """One run; prints the detail line and returns the result object."""
    _use_checkout_source()
    units = _units(trace)
    clock = HostClock()
    setup_s, setup_samples = _setup_seconds(workload, seed, clock)
    run = Run(workload, seed, trace, clock)
    workdir = SCRATCH / f"run-{workload.name}-{os.getpid()}"
    try:
        run.measure(workload.build(seed, workdir), seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.per_layer() if trace else run.end_to_end(setup_s)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print("detail " + json.dumps(run.detail(setup_samples)))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _child_run(name, seed, seconds, trace):
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} failed:\n{child.stderr}")
    lines = child.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return _last_json_line(child.stdout), detail


_LAYER_SELF = ("cli.self_s", "io.self_s", "solver.self_s",
               "solver.block_solve_s", "solver.cg_self_s", "convmodel.self_s",
               "tensor.self_s", "transform.s", "trace.unattributed_s")


def report(seed, seconds):
    """Run every workload untraced and traced; print all metrics and checks.

    Returns the process exit code: 0 only if every check passed.
    """
    ok = True
    machine = None
    for name in WORKLOADS:
        result, detail = _child_run(name, seed, seconds, 0)
        traced, traced_detail = _child_run(name, seed, seconds, 1)
        machine = detail["machine"]
        print(f"== {name} (seed {seed}, {detail['solves']} untraced solves, "
              f"{len(traced_detail['traced_times_s'])} traced)")
        for label, res in (("end-to-end", result), ("per-layer", traced)):
            print(f"-- {label}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, value in res["metrics"].items():
                print(f"   {metric:34s} {value['value']:14.6g} "
                      f"{value['unit']}")
        tail = detail["solve_tail"]
        print(f"   solve_s tail: " + (
            f"p{tail['percentile']} = {tail['value']:.6g} s" if tail
            else f"none (n={detail['solves']} < 20)"))
        layers = traced["metrics"]
        solve_s = layers["trace.solve_s"]["value"]
        print(f"   traced solve_s {solve_s:.6g} s = " + " + ".join(
            f"{key} {100 * layers[key]['value'] / solve_s:.1f}%"
            for key in _LAYER_SELF))
        counts = traced_detail["trace_counts"]
        if counts.get("solver.admm_iters"):
            print(f"   ADMM iterations over the traced fits: "
                  f"{counts['solver.admm_iters']} from AdmmState deltas, "
                  f"{counts['solver.report_inner_iters']} summed from "
                  f"SolveReport.inner_iters")
        print(f"   tracing overhead: "
              f"{layers['trace.overhead_s']['value']:+.4g} s per solve")
        same = detail["digests"] == traced_detail["digests"] and \
            detail["psnr_db"] == traced_detail["psnr_db"]
        print(f"   outputs of the untraced and traced runs identical: {same}")
        print(f"   working set (bytes): {detail['working_set_bytes']}, "
              f"fits in last-level cache: {detail['working_set_fits_llc']}")
        ok = ok and same and result["correct"] and traced["correct"]
    print(f"== machine: {json.dumps(machine)}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, print every metric")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload, args.seed)}))
        return 0
    print(json.dumps(run_workload(workload, args.seed, args.seconds,
                                  args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
