"""Benchmark of sparsejl, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports the package from the checkout's ``src``.  Set-up
runs three fresh interpreters, each importing sparsejl and writing the
workload inputs; ``setup_s`` is their median wall time.  The workload then
runs in this process as a closed loop with one client for at least
``--seconds`` seconds, checking every output (see workloads.py).

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
``op_ref`` (median cycle time in units of the reference kernel, see
ReferenceKernel) and ``peak_rss_mb``.  With ``--trace 1`` untraced and
traced cycles alternate; the result holds the per-layer metrics of the
traced cycles (see tracer.py) and the tracing overhead, and the spans are
written to ``.perfbench-traces/``.

The line before the result records the environment, the median cycle time
in seconds (``op_s``), the step times and the workload's named figures.
The last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from tracer import Tracer, combine_cycles, cycle_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-traces"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
# One BLAS thread: the benchmark starts no threads and the machine is shared.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ReferenceKernel:
    """Fixed work owned by the benchmark, timed around every step.

    The host is shared: for tens of seconds at a time all code can run up to
    1.7x slower, which moves a step's wall time far more than the bound a
    change is judged by.  A step divided by the mean time of this kernel
    just before and after it cancels most of that drift.  The kernel mixes
    the kinds of work the workloads do (float formatting in the interpreter
    and a numpy sort) and never calls sparsejl, so a change to the program
    moves the step times and not the reference.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._sort = np.sort
        self._floats = rng.standard_normal(24_000).tolist()
        self._array = rng.standard_normal(1 << 18)
        self.seconds = [self._run()]

    def _run(self) -> float:
        start = time.perf_counter()
        ",".join(repr(x) for x in self._floats)
        for _ in range(8):
            self._sort(self._array)
        return time.perf_counter() - start

    def relative(self, seconds: float) -> float:
        """``seconds`` over the mean of the previous and a fresh kernel time."""
        self.seconds.append(self._run())
        return 2.0 * seconds / (self.seconds[-2] + self.seconds[-1])


def run_cycle(workload, kernel: ReferenceKernel, tracer=None) -> tuple[dict, dict, int, int]:
    """One cycle: time each step, then check every output with tracing off.

    Returns the step times in seconds and relative to the reference kernel,
    the number of steps attempted and the number that raised or failed
    their check.
    """
    results, relative = [], {}
    if tracer:
        tracer.install()
    try:
        for name, call in workload.steps():
            with tracer.span(f"step.{name}") if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    out, error = call(), None
                except Exception as exc:
                    out, error = None, exc
                seconds = time.perf_counter() - start
            results.append((name, seconds, out, error))
            relative[name] = kernel.relative(seconds)
    finally:
        if tracer:
            tracer.uninstall()
    failed = 0
    for name, _, out, error in results:
        try:
            if error is not None:
                raise error
            workload.check(name, out)
        except Exception:
            failed += 1
            print(f"{workload.name}.{name} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return {name: seconds for name, seconds, _, _ in results}, relative, len(results), failed


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run cycles for ``seconds``; with ``trace``, alternate untraced and traced."""
    kernel = ReferenceKernel()
    plain, plain_ref, traced, traced_ref, tracers = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        step_s, step_ref, n, bad = run_cycle(workload, kernel, tracer)
        attempted, failed = attempted + n, failed + bad
        if tracer:
            traced.append(step_s)
            traced_ref.append(step_ref)
            tracers.append(tracer)
        else:
            plain.append(step_s)
            plain_ref.append(step_ref)
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break

    def cycle_median(cycles):
        return median(sum(c.values()) for c in cycles)

    out = {
        "attempted": attempted,
        "failed": failed,
        "cycles": len(plain),
        "op_ref": cycle_median(plain_ref),
        "op_s": cycle_median(plain),
        "step_s": {name: median(c[name] for c in plain) for name in plain[0]},
        "reference_s": median(kernel.seconds),
    }
    if trace:
        layer = combine_cycles([cycle_metrics(t.spans) for t in tracers])
        traced_step_s = {name: median(c[name] for c in traced) for name in traced[0]}
        out["per_layer"] = {**layer, **{f"step.{k}.s": v for k, v in traced_step_s.items()},
                            "trace.op_s": cycle_median(traced),
                            "trace.overhead_pct": 100.0 * (cycle_median(traced_ref) / out["op_ref"] - 1.0)}
        out["tracers"] = tracers
    return out


def setup(name: str, seed: int, work: Path, tiny: bool = False) -> tuple[float, float]:
    """Median wall time and median import time of the set-up interpreters."""
    wall, imports = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "prepare.py"), "--workload", name, "--seed", str(seed), "--work", str(work)]
        start = time.perf_counter()
        proc = subprocess.run(argv + (["--tiny"] if tiny else []), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        wall.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return median(wall), median(imports)


def cache_sizes() -> dict[str, int | None]:
    sizes = {"l2_bytes": None, "l3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            if level in ("2", "3"):
                sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def environment(workload) -> dict:
    import platform

    import numpy
    import scipy

    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PINS},
        "os_threads": os_threads,
        **cache_sizes(),
        "working_set_bytes": workload.working_set(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 1, the pinned seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes for the self-test; nothing is pinned")
    args = parser.parse_args(argv)

    if not (SRC / "sparsejl" / "__init__.py").is_file():
        print(f"error: no sparsejl sources under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_PINS:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import resource

    import sparsejl
    from workloads import DEFAULT_SEED, WORKLOADS

    if Path(sparsejl.__file__).resolve().parent != SRC / "sparsejl":
        print(f"error: sparsejl imported from {sparsejl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, import_s = setup(args.workload, seed, work, args.tiny)
        workload = WORKLOADS[args.workload](work, seed, args.tiny)
        workload.load()
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    if args.trace:
        write_spans(TRACE_DIR / f"{args.workload}.jsonl", result["tracers"])
        values = {**result["per_layer"], "setup.import_s": import_s}
        metrics = {}
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            name = entry["name"]
            # Steps of other workloads are absent; every other metric must be measured.
            value = values.get(name, 0.0) if name.startswith("step.") else values[name]
            metrics[name] = metric(value, entry["unit"])
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_ref": metric(result["op_ref"], "ref"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detail = {"workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "cycles": result["cycles"], "op_s": result["op_s"], "reference_s": result["reference_s"],
              "step_s": result["step_s"],
              "figures": workload.summary(result["step_s"]), "environment": environment(workload)}
    print(json.dumps(detail))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
