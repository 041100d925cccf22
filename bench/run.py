"""nanowords benchmark: one workload, one run, every metric by name.

    python3 bench/run.py --workload {search,classify,census} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from src/.  With
--trace 0 the run measures the end-to-end metrics: set-up time is the
median over several fresh processes, then one fresh single-threaded
child runs whole passes of the seeded plan for about S seconds.  With
--trace 1 a child runs untraced passes for S/2 seconds, then one pass
with spans around every public library function, and reports the
per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  bench/README.md describes
the workloads and which metrics each ROADMAP item should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("search", "classify", "census")
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "op_p90_ms": "ms", "states_per_s": "1/s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"self_s": "s", "us_per_call": "us", "us_per_state": "us",
               "kept_ratio": "ratio", "overhead_ratio": "ratio", "phrases_per_s": "1/s"}


class ChildFailed(Exception):
    pass


def _child(args, seed, timeout):
    # A fixed hash seed per benchmark seed makes a run repeatable, set
    # iteration order included.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    return LAYER_UNITS.get(stat, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nanowords" / "__init__.py").is_file():
        print(f"error: no nanowords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            result = _child(run_args, args.seed, CHILD_TIMEOUT_S)
            metrics = {name: (value, _layer_unit(name))
                       for name, value in result["metrics"].items()}
            detail = (f"passes {result['detail']['passes']} (last one traced), "
                      f"{result['detail']['spans']} spans in {result['detail']['spans_file']}")
        else:
            # The first fresh import may compile bytecode; it is not timed.
            _child(["setup", "--workload", args.workload], args.seed, 20)
            setups = [_child(["setup", "--workload", args.workload], args.seed, 20)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = _child(run_args, args.seed, CHILD_TIMEOUT_S)
            setups.append(result["setup_s"])
            values = dict(result["metrics"], setup_s=statistics.median(setups),
                          peak_rss_mb=result["peak_rss_mb"])
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            d = result["detail"]
            detail = (f"passes {d['passes']}, op samples {d['samples']} "
                      f"({d['beyond_p90']} beyond p90), setup samples {len(setups)}, "
                      f"unscaled run_s {d['unscaled_run_s']:.6g} s at speed factor "
                      f"{d['speed_factor']:.3g}")
    except (ChildFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {result['inputs']} inputs, "
          f"digest {result['inputs_digest']}")
    print(detail)
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for error in result["errors"]:
        print(f"  failure: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
