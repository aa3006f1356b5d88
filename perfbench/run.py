"""thermoflat benchmark: one workload, closed loop, one thread, one process.

    python3 perfbench/run.py --workload search_mem1 --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's operations until `--seconds` of
passes have elapsed, checks every output against values computed apart from
thermoflat, and prints as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With `--trace 0` the metrics are the end-to-end ones (wall_ref, setup_s,
peak_rss_mb); with `--trace 1` passes alternate untraced and traced and the
metrics are the per-layer ones of the traced passes, plus the tracing
overhead.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# THERMOFLAT_THREADS selects the thread pool of the multistart search,
# THERMOFLAT_FORCE_PY the kernel backend: both are pinned to their defaults.
CLEARED_VARS = ("THERMOFLAT_THREADS", "THERMOFLAT_FORCE_PY")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_environment():
    """One BLAS/OpenMP thread and default thermoflat switches, set before
    numpy is imported and inherited by the import-timing subprocesses."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in CLEARED_VARS:
        os.environ.pop(var, None)


def import_seconds():
    """Wall time of a fresh interpreter importing the package and its CLI."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import thermoflat, thermoflat.cli")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return time.perf_counter() - start


class ReferenceClock:
    """A fixed computation that does not call thermoflat, timed before each
    operation, after it, and every PERIOD seconds while it runs (from a
    SIGALRM handler, so the samples see the machine as the operation does).
    An operation's time divided by the mean of its samples factors out how
    fast this shared machine happens to run at that moment.

    The computation mixes what the workloads do: a log-domain power
    iteration on a small matrix (numpy calls on tiny arrays) and a
    golden-section search in plain Python floats.
    """

    STEPS = 100
    PERIOD = 0.05

    def __init__(self, np):
        self.np = np
        self.log_matrix = np.log(np.random.default_rng(7).uniform(0.1, 1.0, (8, 8)))
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)

    def _work(self):
        np = self.np
        vec = np.zeros(8)
        for _ in range(self.STEPS):
            work = self.log_matrix + vec[None, :]
            peak = work.max(axis=1)
            vec = peak + np.log(np.exp(work - peak[:, None]).sum(axis=1))
            vec -= vec.max()
        invphi = 0.6180339887498949
        total = 0.0
        for shift in range(self.STEPS // 8):
            a, b = -4.0, 4.0 + shift
            while b - a > 1e-11:
                c, d = b - invphi * (b - a), a + invphi * (b - a)
                if (c - 1.0) ** 2 <= (d - 1.0) ** 2:
                    b = d
                else:
                    a = c
            total += a
        return total

    def sample(self, *_):
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)

    def time(self, fn, sampling=True):
        """Run fn between two reference samples, sampling every PERIOD while
        it runs; returns (result, error, seconds net of the samples, mean of
        the samples from just before to just after)."""
        self.samples = []
        self.sample()
        if sampling:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        start = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # the benchmark reports it and carries on
            out, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        seconds = time.perf_counter() - start - sum(self.samples[1:])
        self.sample()
        return out, error, seconds, statistics.fmean(self.samples)


def run_pass(ops, clock, sampling):
    """One pass over the ops, each timed against the reference clock."""
    rows = []
    for op in ops:
        out, error, seconds, ref = clock.time(op.run, sampling)
        rows.append({"op": op, "seconds": seconds, "ref": ref, "out": out,
                     "error": error})
    return rows


def judge(rows, seen):
    """Check a pass's outputs; returns (failed count, correct flag)."""
    failed, correct = 0, True
    for row in rows:
        op, error = row["op"], row["error"]
        if error is not None:
            failed += 1
            text = f"{type(error).__name__}: {error}"
            known = op.fault_text and op.fault_text in str(error)
            key = (op.name, known)
            if key not in seen:
                seen.add(key)
                if known:
                    print(f"FAULT {op.name}: {op.fault} [{text[:160]}]")
                else:
                    print(f"ERROR {op.name}: {text[:400]}")
                    traceback.print_exception(error, file=sys.stderr)
            continue
        problems = op.check(row["out"])
        if problems:
            correct = False
            for problem in problems:
                print(f"WRONG {op.name}: {problem}")
    return failed, correct


def per_pass(passes, key):
    """One pass's total of key(row): the sum over ops of each op's median
    over passes."""
    return sum(statistics.median(key(rows[i]) for rows in passes)
               for i in range(len(passes[0])))


def seconds(row):
    return row["seconds"]


def ref_units(row):
    """An op's seconds divided by the mean reference sample around it."""
    return row["seconds"] / row["ref"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    if not (SRC / "thermoflat" / "__init__.py").is_file():
        print(f"error: thermoflat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import thermoflat as tf
    import thermoflat.cli
    import thermoflat.modelio
    import thermoflat.transport  # noqa: F401  (submodules the ops call)
    if Path(tf.__file__).resolve().parent != SRC / "thermoflat":
        print(f"error: imported thermoflat from {tf.__file__}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    imports, preps = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](tf, args.seed, str(workdir))
        workload.warmup()
        preps.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(preps)

    clock = ReferenceClock(np)
    tracer = tracing.Tracer() if args.trace else None
    ops = workload.ops
    plain, traced, layer = [], [], []
    attempted = failed = 0
    correct, seen = True, set()
    elapsed = 0.0
    while elapsed < args.seconds or (tracer and not traced):
        # with --trace 1, passes alternate untraced and traced; a traced pass
        # takes no samples while an op runs, as they would land in its spans
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            rows = run_pass(ops, clock, sampling=not use_trace)
        finally:
            if use_trace:
                tracer.uninstall()
        elapsed += time.perf_counter() - start
        if use_trace:
            traced.append(rows)
            layer.append(tracer.snapshot())
        else:
            plain.append(rows)
        pass_failed, pass_correct = judge(rows, seen)
        attempted += len(rows)
        failed += pass_failed
        correct = correct and pass_correct

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(plain) + len(traced),
              "setup_imports_s": imports, "setup_prep_s": preps,
              "wall_s": per_pass(plain, seconds),
              "ops": {op.name: {"seconds": [rows[i]["seconds"] for rows in plain],
                                "ref": [rows[i]["ref"] for rows in plain]}
                      for i, op in enumerate(ops)}}
    if tracer is None:
        import resource
        values = {
            "wall_ref": per_pass(plain, ref_units),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = {name: {"value": statistics.median(snap[name][0] for snap in layer),
                          "unit": unit} for name, (_, unit) in layer[0].items()}
        overhead = per_pass(traced, seconds) / per_pass(plain, seconds) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "last_traced_pass": tracer.call_graph()}, fh, indent=1)
    report["metrics"] = metrics
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
