#!/usr/bin/env python3
"""swk benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload cubes-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; swk is imported from ``src/``.
Every operation is an in-process call of ``swk.cli.main(argv)`` with
stdout captured, issued only after the previous one returned, on one
thread.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layertrace.py`` with ``--trace 1``.
A human-readable table with sample counts goes to stderr.

End-to-end times are reference-speed times.  The host's speed moves by
40% or more in phases that last minutes, longer than any run.  So a fixed
pure-Python probe runs, off the clock, before every operation and every
set-up, and each measured time is multiplied by PROBE_REF_S over the
median probe time around it.  Nothing of swk runs in the probe, so a
change to swk moves these times exactly as it moves wall time.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Checker  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

# Set-up is repeated and its median reported, so one slow start does not
# decide setup_s (untraced runs only).
SETUPS = 7
# p90 needs at least ten samples above it.
MIN_SAMPLES = 100
# A run never measures longer than this, whatever the sample count.
MAX_MEASURE_S = 60.0
# The probe's median time on the host that defined the benchmark (see
# README.md), and how many probes around a time set its scale.
PROBE_REF_S = 0.0022
PROBE_WINDOW = 9


def probe() -> float:
    """Time a fixed pure-Python loop: the host's speed, not swk's."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return perf_counter() - t0


def host_scale(probes: list[float]) -> float:
    """Factor from this host's current speed to the reference speed."""
    return PROBE_REF_S / statistics.median(probes)


def run_op(main, op):
    """Call swk's CLI once; return (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a failed operation, not a crash
            code = "uncaught: " + traceback.format_exc(limit=3)
    return perf_counter() - t0, code, out.getvalue()


def swk_modules() -> list[str]:
    return [name for name in sys.modules if name == "swk" or name.startswith("swk.")]


def set_up(workload: str, seed: int, workdir: Path):
    """Import swk afresh, write the inputs and run the warm-up operation.

    Returns (seconds, plan, swk.cli, warm-up outcome)."""
    t0 = perf_counter()
    for name in swk_modules():
        del sys.modules[name]
    cli = importlib.import_module("swk.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = Plan(workload, seed, workdir)
    warm = run_op(cli.main, plan.warmup)
    return perf_counter() - t0, plan, cli, warm


def measure(main, cycles, seconds: float, min_samples: int = MIN_SAMPLES, tracer=None,
            pause=None, probes=None):
    """Run whole cycles, closed loop, until the nearest cycle boundary to
    ``seconds`` of timed work (and at least ``min_samples`` operations).
    ``cycles`` yields lists of operations; ``pause(timed_seconds)``, if
    given, runs off the clock after each cycle.  If ``probes`` is a list,
    a probe time is appended to it before each operation, off the clock.
    Returns (timed seconds, samples)."""
    samples = []
    done = 0
    timed = 0.0
    for ops in cycles:
        for op in ops:
            if probes is not None:
                probes.append(probe())
            if tracer is not None:
                tracer.current_op = len(samples)
            samples.append((op, *run_op(main, op)))
            timed += samples[-1][1]
        done += 1
        if timed >= MAX_MEASURE_S:
            break
        if timed + timed / done / 2 >= seconds and len(samples) >= min_samples:
            break
        if pause is not None:
            pause(timed)
    return timed, samples


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def check_all(checker, samples):
    failures, instances = [], 0
    for op, _, code, out in samples:
        reason, seen = checker.check(op, code, out)
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason}")
        if op.kind == "verify":
            instances += seen
    return failures, instances


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "swk" / "__init__.py").is_file():
        print(f"swk sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (a dependency; its import is not swk's set-up)

    checker = Checker()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    setups, warmups, probes = [], [], []

    def set_up_once(path: Path):
        scale = host_scale([probe() for _ in range(PROBE_WINDOW)])
        dt, plan, cli, (wdt, code, out) = set_up(args.workload, args.seed, path)
        setups.append(dt * scale)
        warmups.append((plan.warmup, wdt, code, out))
        return plan, cli

    def pause(timed: float) -> None:
        # The other set-ups are spread over the run, off the clock, so that
        # setup_s samples the machine across the run, not in one burst.
        # The timed operations keep the first set-up's modules.
        while len(setups) < SETUPS and timed >= len(setups) * args.seconds / SETUPS:
            kept = {name: sys.modules[name] for name in swk_modules()}
            set_up_once(workdir / f"setup{len(setups)}")
            for name in swk_modules():
                del sys.modules[name]
            sys.modules.update(kept)

    try:
        plan, cli = set_up_once(workdir / "setup0")
        cycles = iter(plan.cycle, None)  # endless
        if args.trace:
            metrics, samples = traced_run(cli, cycles, args)
        else:
            _, samples = measure(cli.main, cycles, args.seconds, pause=pause, probes=probes)
            pause(float("inf"))
        failures, _ = check_all(checker, warmups)
        found, instances = check_all(checker, samples)
        failures += found
        if not args.trace:
            metrics = end_to_end(samples, probes, setups, instances)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:10]:
        print("FAIL", line[:500], file=sys.stderr)
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload:13s} {name:42s} {value:16.6f} {unit:6s} n={count}", file=sys.stderr)
    if probes:
        print(f"{args.workload:13s} {'host speed (reference = 1)':42s} "
              f"{host_scale(probes):16.6f} {'x':6s} n={len(probes)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(warmups) + len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def end_to_end(samples, probes: list[float], setups: list[float], instances: int) -> dict:
    """Metric -> (value, unit, sample count), in reference-speed time: each
    operation's time is scaled by the median of the probes around it."""
    half = PROBE_WINDOW // 2
    times = [dt * host_scale(probes[max(0, i - half):i + half + 1])
             for i, (_, dt, _, _) in enumerate(samples)]
    latencies = sorted(times)
    n = len(samples)
    n_verify = sum(op.kind == "verify" for op, *_ in samples)
    verify_s = sum(t for (op, *_), t in zip(samples, times) if op.kind == "verify")
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (n / sum(times), "1/s", n),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms", n),
        "op_p90_ms": (1000 * percentile(latencies, 0.9), "ms", n),
        "instances_per_s": (instances / verify_s, "1/s", n_verify),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def traced_run(cli, cycles, args):
    """Untraced pass for half the time, then the identical operations
    traced; the difference in wall time is the tracing overhead."""
    from layertrace import Tracer

    plain_wall, plain = measure(cli.main, cycles, args.seconds / 2, min_samples=1)
    tracer = Tracer()
    tracer.install()
    traced_wall, traced = measure(cli.main, iter([[op for op, *_ in plain]]), 0.0,
                                    min_samples=1, tracer=tracer)
    layers = tracer.summary([dt for _, dt, _, _ in traced])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    metrics = {name: (value, unit, len(traced)) for name, (value, unit) in layers.items()}
    metrics["trace.wall_s"] = (traced_wall, "s", len(traced))
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s", len(traced))
    return metrics, plain + traced


if __name__ == "__main__":
    sys.exit(main())
