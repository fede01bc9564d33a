"""Benchmark command: one workload of sosrep's protocols, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it benchmarks the sosrep package
under ./src.  Workloads: ad_sosrep_sdo, ad_kde_gaussian and negfrac (see
bench/README.md).

The workload runs in fresh processes (bench/worker.py): a few that only set
up, for the set-up time, then one that sets up and runs a closed loop of
protocol calls, one at a time, for S seconds and at least four calls.  Every
call's outputs are checked.  A short fixed reference block
(bench/reference.py) is timed every half second during each call and every
tenth of a second during set-up, and the declared times run_s and setup_s
are given at the reference machine speed with it; the plain wall times are
printed as run_wall_s and setup_wall_s.  With --trace 1 each call
is made twice on the same inputs, once plain and once with spans around the
library's layer boundaries, and the per-layer metrics come from the traced
calls.

Output: one "metric <name> <value> <unit>" line per metric, the machine and
quality figures, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  A copy of the full record goes to
.bench_out/ under the checkout.  Exits with 2 when the checkout has no
sosrep sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 2  # set-up-only processes; the measured process adds one more sample
DEADLINE_S = 170.0  # the whole command, set-up probes included


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    """The caller's environment with BLAS capped at the usable cores and no SOSREP_THREADS."""
    env = dict(os.environ)
    env.pop("SOSREP_THREADS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _spawn(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawn_time = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--spawn-time", repr(spawn_time)]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", deadline: float | None = None) -> dict:
    """Set-up samples plus one measured loop; returns the full run record."""
    if deadline is None:
        deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setup = [_spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    main = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace),
                   "--spans-out", str(spans_out) if trace else ""], deadline)
    setup.append({k: main[k] for k in ("setup_s", "setup_speed")})
    ops = main["ops"]
    plain = [o for o in ops if not o["traced"]]
    first, steady = plain[0], plain[1:] or plain  # the first call warms the process up
    timed = [o for o in steady if o["ok"]] or steady
    end_to_end = {
        "run_s": statistics.median(o["seconds"] * o["speed"] for o in timed),
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"] for s in setup),
        "peak_rss_mb": main["peak_rss_mb"],
        "run_wall_s": statistics.median(o["seconds"] for o in timed),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setup),
        "first_call_s": first["seconds"] * first["speed"],
        "speed": statistics.median(o["speed"] for o in plain),
        "failed_frac": sum(not o["ok"] for o in ops) / len(ops),
    }
    aucs = [o["quality"]["auc"] for o in ops if "auc" in o["quality"]]
    if aucs:
        end_to_end["auc"] = statistics.median(aucs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": main["machine"], "setup_samples": setup, "ops": ops,
        "end_to_end": end_to_end, "per_layer": main.get("per_layer", {}),
    }


# Printed with the declared metrics; see README.md for why they are not declared.
EXTRA_UNITS = {"run_wall_s": "s", "setup_wall_s": "s", "first_call_s": "s", "speed": "frac",
               "failed_frac": "frac", "auc": "frac"}


def render(record: dict, spec: dict) -> list[str]:
    """Human-readable lines plus, last, the JSON result line."""
    ops = record["ops"]
    failed = sum(not o["ok"] for o in ops)
    m = record["machine"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} seconds {record['seconds']} "
        f"trace {record['trace']}",
        f"machine nproc {m['nproc']} blas {m['blas']} {m['blas_version']} blas_threads "
        f"{m['blas_threads']} python {m['python']} numpy {m['numpy']} scipy {m['scipy']}",
        f"ops {len(ops)} (protocol seeds {sorted({o['seed'] for o in ops})}), "
        f"set-up samples {len(record['setup_samples'])}",
    ]
    units = {d["name"]: d["unit"] for d in spec["end_to_end"]} | EXTRA_UNITS
    for name, value in record["end_to_end"].items():
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    if record["trace"]:
        for d in declared:
            lines.append(f"metric {d['name']} {values[d['name']]:.6g} {d['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sosrep" / "__init__.py").is_file():
        print(f"no sosrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (0 <= args.seed <= 2**31 - 1) or args.seconds < 0:
        print("--seed must lie in [0, 2**31 - 1] and --seconds must be nonnegative",
              file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              deadline=deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    lines = render(record, spec)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": json.loads(lines[-1])}, indent=1),
                   encoding="utf-8")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
