"""poolkit benchmark: one command for the three workloads.

    python3 bench/run.py --workload {cli_pool,stream,transport} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it imports poolkit from ``src/`` next to this
directory.  Load comes from this single process, as one closed-loop
client: the next operation starts when the previous one has finished.
The process, and every process it starts, stays on one CPU, and BLAS runs
on one thread (never more than the CPUs the process may use).

A run works on a fixed block of whole cycles of the workload's mix.  The
block size follows from ``--seconds`` alone, so a seed always gives the
same operations and commits are compared on identical work.

Times are calibrated.  Around every timed step the runner times a probe,
a fixed piece of reference work (an interpreter loop and small BLAS
products), and scales the step's wall time by ``PROBE_NOMINAL_S / probe``.
On a shared host, other tenants slow the CPU down by up to about 1.6x
for seconds to minutes at a time; the probe slows down with it, so the
scaled time is what the step would take at the host's nominal speed.
The raw wall times are printed next to the calibrated ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
of a half-size block once untraced and once traced, and reports calls
and self time per poolkit function, counts, the import split, and the
trace's coverage and overhead.

Every output is checked.  A documented failure (a PoolkitError, or a CLI
exit of 1-3 with an ``error:`` line) counts toward ``failed``; a wrong
output makes the command exit 1, and any other error exits non-zero too.
The last line of standard output is the JSON result; the line before it
records the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_pool", "stream", "transport")
IMPORT_REPS = 5        # interpreter start + `import poolkit`, each in a fresh process
IMPORTTIME_REPS = 3
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The probe's time on an idle host of the kind the benchmark was defined on
# (2-CPU x86-64, Python 3.11, NumPy 2.4 with OpenBLAS).  It sets the scale of
# calibrated times only; every commit is measured against the same value.
PROBE_NOMINAL_S = 2.0e-3
END_TO_END_UNITS = {
    "setup_s": "s", "ok_ratio": "ratio", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms",
    "vits_ms_p50": "ms", "vits_ms_p90": "ms", "r50_ms_p50": "ms", "r50_ms_p90": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


class Probe:
    """A fixed piece of reference work whose duration tracks the host's speed."""

    def __init__(self, np):
        self.matrix = np.random.default_rng(0).random((64, 64))
        for _ in range(3):  # warm-up: first-touch allocations, BLAS start-up
            self()

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(50):
            self.matrix @ self.matrix
        return perf_counter() - start

    def timed(self, fn):
        """(fn's result, wall seconds, calibration scale for those seconds)."""
        before = self()
        start = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - start
        scale = 2.0 * PROBE_NOMINAL_S / (before + self())
        return result, elapsed, scale


class Record(NamedTuple):
    shape: Optional[str]
    group: Optional[int]  # see workloads.Op.group
    seconds: float        # wall time
    ok: bool
    scale: float          # calibration factor for ``seconds``

    @property
    def calibrated(self) -> float:
        return self.seconds * self.scale


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)


def setup_seconds(probe: Probe, workload) -> tuple[float, float]:
    """Calibrated and raw set-up time: the median of fresh interpreters running
    `import poolkit`, plus the median of the workload's own set-up, if any."""
    cal, raw = 0.0, 0.0
    for reps, fn in ((IMPORT_REPS, lambda: python("-c", "import poolkit")),
                     (workload.setup_reps, workload.setup)):
        if reps:
            runs = [probe.timed(fn)[1:] for _ in range(reps)]
            cal += statistics.median(t * scale for t, scale in runs)
            raw += statistics.median(t for t, _ in runs)
    return cal, raw


def import_split() -> dict[str, float]:
    """Median cumulative import time of numpy and of poolkit on top of it,
    from `python -X importtime`."""
    samples = {"numpy": [], "poolkit": []}
    for _ in range(IMPORTTIME_REPS):
        stderr = python("-X", "importtime", "-c", "import numpy; import poolkit").stderr
        for line in stderr.splitlines():
            fields = line.split("|")
            # top-level imports carry a single space of indentation
            if len(fields) == 3 and fields[2][1:] in samples:
                samples[fields[2][1:]].append(int(fields[1]) * 1e-6)
    return {f"import.{name}_s": statistics.median(values) for name, values in samples.items()}


def blas_info(np) -> tuple[str, object]:
    """BLAS library name and the thread count it reports, where it can."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older NumPy: no dict form of the build configuration
        name = "unknown"
    threads = None
    try:
        import ctypes
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
        for lib in sorted(libs):
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return name, threads


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q a multiple of 10), by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


class Runner:
    def __init__(self, workload, probe: Probe):
        self.workload = workload
        self.probe = probe

    def execute(self, op, tracer=None) -> Record:
        """Run one op; its input is written and its outputs checked untimed."""
        if op.prepare is not None:
            op.prepare()

        def run():
            try:
                return op.run(), True
            except self.workload.failures:
                return None, False

        if tracer is not None:
            tracer.install()
        try:
            (out, ok), elapsed, scale = self.probe.timed(run)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if ok:
            op.check(out)
        return Record(op.shape, op.group, elapsed, ok, scale)

    def block(self, seconds: int):
        return [op for c in range(self.workload.cycles(seconds)) for op in self.workload.cycle(c)]


def end_to_end(records: list[Record], setup_s: float, calibrated: bool = True) -> dict[str, float]:
    def seconds(r: Record) -> float:
        return r.calibrated if calibrated else r.seconds

    done = sum(r.ok for r in records)
    metrics = {
        "setup_s": setup_s,
        "ok_ratio": done / len(records),
        "ops_per_s": done / sum(seconds(r) for r in records),
    }
    samples = {"op": {i: seconds(r) for i, r in enumerate(records)}, "vits": {}, "r50": {}}
    for i, r in enumerate(records):
        if r.shape in samples:
            key = ("op", i) if r.group is None else ("group", r.group)
            samples[r.shape][key] = samples[r.shape].get(key, 0.0) + seconds(r)
    for prefix, by_key in samples.items():
        times = [t * 1e3 for t in by_key.values()]
        metrics[f"{prefix}_ms_p50"] = statistics.median(times)
        metrics[f"{prefix}_ms_p90"] = percentile(times, 90)
    return metrics


def traced_run(args, workload, runner, tracer_mod):
    imports = import_split()
    tracer = tracer_mod.Tracer()
    if tracer.absent:
        print(json.dumps({"absent": tracer.absent}))
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    tracer.top_s = 0.0
    runner.execute(workload.cycle(0)[0])  # warm-up: lazy imports, first-touch allocations
    plain, traced = [], []
    half = max(1, args.seconds // 2)
    # each op runs twice on the same input; alternate which run goes first
    for i, (op, again) in enumerate(zip(runner.block(half), runner.block(half))):
        if i % 2:
            traced.append(runner.execute(op, tracer))
            plain.append(runner.execute(again))
        else:
            plain.append(runner.execute(op))
            traced.append(runner.execute(again, tracer))
    metrics = tracer.metrics()
    metrics.update(imports)
    metrics["trace.coverage"] = tracer.top_s / sum(r.seconds for r in traced)
    # the same ops run both ways, so the op-time ratio is the ops_per_s ratio
    metrics["trace.overhead"] = (sum(r.calibrated for r in traced)
                                 / sum(r.calibrated for r in plain))
    units = tracer_mod.metric_units()
    units.update({name: "s" for name in imports})
    units.update({"trace.coverage": "ratio", "trace.overhead": "ratio"})
    return metrics, units, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poolkit" / "__init__.py").is_file():
        print(f"error: no poolkit sources under {SRC}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    # one CPU for this process and its children, so that the probe and the
    # op it calibrates always run on the same CPU
    os.sched_setaffinity(0, {cpus[-1]})
    for var in BLAS_THREAD_VARS:  # set before NumPy loads; children inherit them
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import numpy as np
    import tracer as tracer_mod
    import workloads as workload_mod

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
        if args.workload == "cli_pool":
            workload = workload_mod.CliPool(args.seed, Path(workdir), ROOT, in_process=bool(args.trace))
        elif args.workload == "stream":
            workload = workload_mod.Stream(args.seed)
        else:
            workload = workload_mod.Transport(args.seed)
        runner = Runner(workload, Probe(np))

        blas, blas_threads = blas_info(np)
        print(json.dumps({"environment": {
            "cpu_count": len(cpus), "pinned_cpu": cpus[-1], "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}}))

        records: list[Record] = []
        raw: dict[str, float] = {}
        try:
            if args.trace:
                metrics, units, records = traced_run(args, workload, runner, tracer_mod)
            else:
                setup_s, setup_raw = setup_seconds(runner.probe, workload)
                records = [runner.execute(op) for op in runner.block(args.seconds)]
                metrics = end_to_end(records, setup_s)
                raw = end_to_end(records, setup_raw, calibrated=False)
                units = END_TO_END_UNITS
        except workload_mod.CheckFailed as exc:
            print(f"error: wrong output: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(1, len(records)),
                              "failed": sum(not r.ok for r in records), "metrics": {}}))
            return 1

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    for name, value in metrics.items():
        wall = f"  (wall {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}{wall}")
    print(f"{args.workload}  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
