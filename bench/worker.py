"""One workload process: set up, run the closed loop of operations, report.

Started by run.py, once per set-up sample and once for the measured loop.
It prints one JSON object on its last stdout line.  Set-up time runs from
--spawn-time (CLOCK_MONOTONIC, taken by the parent just before it started
this process) to the moment the first operation's inputs are built and the
lazy caches they need are filled.  A SpeedSampler (reference.py) runs from
just after numpy is imported to the end of set-up, and through every plain
operation, so that each time can be given at the reference machine speed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checkout's sources, never an installed copy

from reference import SpeedSampler  # noqa: E402

SETUP_INTERVAL_S = 0.1  # sampling interval during set-up (about 1 s)
OP_INTERVAL_S = 0.5  # and during a protocol call (2 to 12 s)

# Run as a script, set-up is sampled from here on: importing sosrep and
# building the first inputs.
_setup_sampler = SpeedSampler(SETUP_INTERVAL_S).start() if __name__ == "__main__" else None

import workloads  # noqa: E402
from layers import BOUNDARIES, per_layer_metrics  # noqa: E402
from spans import Tracer, instrument  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _run_op(workload, op, tracer=None) -> dict:
    """One operation: the protocol call, timed, then its output checks.

    A plain call runs under a SpeedSampler: `seconds` leaves out the time the
    samples took and `speed` is the machine's speed relative to the
    reference during the call.  A traced call is timed as it is.
    """
    out, problems, quality = None, [], {}
    sampler = SpeedSampler(OP_INTERVAL_S).start() if tracer is None else None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.call(op)
        else:
            with instrument(tracer, BOUNDARIES), tracer.span(f"harness.{workload.protocol}"):
                out = workload.call(op)
    except Exception as exc:  # the op counts as failed; the loop goes on
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        if sampler is not None:
            sampler.stop()
    seconds = time.perf_counter() - t0
    speed = None
    if sampler is not None:
        seconds -= sampler.spent
        speed = sampler.relative_speed()
    if out is not None:
        problems, quality = workload.check(op, out)
    for p in problems:
        print(f"op seed={op.seed} failed check: {p}", file=sys.stderr)
    return {"seed": op.seed, "seconds": seconds, "speed": speed, "traced": tracer is not None,
            "ok": not problems, "problems": problems, "quality": quality}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    setup_sampler = _setup_sampler or SpeedSampler(SETUP_INTERVAL_S).start()
    workload = workloads.make_workload(args.workload, args.size)
    op = workload.make_op(args.seed, 0)
    workload.warm(op)
    setup_sampler.stop()
    setup_s = _now() - args.spawn_time - setup_sampler.spent
    setup_speed = setup_sampler.relative_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    ops = []
    tracer = Tracer() if args.trace else None
    # As many whole rounds as fit in --seconds, judged by the rounds so far;
    # at least MIN_OPS plain calls, or one traced pair.
    min_rounds = 1 if tracer is not None else workloads.MIN_OPS
    rounds = []
    t_begin = time.perf_counter()
    if tracer is not None:
        # Warm-up, so that the first pair's plain call is not the slower first call.
        ops.append(_run_op(workload, op))
    k = 0
    while k < workloads.MAX_OPS:
        elapsed = time.perf_counter() - t_begin
        if k >= min_rounds and elapsed + statistics.median(rounds) > args.seconds:
            break
        if k > 0:
            op = workload.make_op(args.seed, k)
        ops.append(_run_op(workload, op))
        if tracer is not None:
            # The same inputs again, traced, so that the pair gives the overhead.
            ops.append(_run_op(workload, op, tracer))
        rounds.append(time.perf_counter() - t_begin - elapsed)
        k += 1

    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "machine": machine_info(),
    }
    if args.trace:
        untraced = sum(o["seconds"] for o in ops[1:] if not o["traced"])
        traced = sum(o["seconds"] for o in ops if o["traced"])
        result["per_layer"] = per_layer_metrics(tracer.spans, k)
        result["per_layer"]["trace_overhead_frac"] = (traced - untraced) / untraced
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
