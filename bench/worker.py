"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py setup  --workload W
    python3 bench/worker.py run    --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py record            # rewrite bench/reference.json

`setup` and `run` print one JSON object on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

SPANS_DIR = BENCH / "out"
# A measured run's pass time is a median over at least two passes, and
# op_p90_ms has at least ten samples beyond it.
MIN_PASSES = 2
MIN_OPS = 100

from recorder import Recorder, calibrate, speed_factor  # noqa: E402


def _setup(workload_name):
    """Import the library and load every builtin the workload uses.

    Returns the set-up time scaled by the machine's speed around it.
    """
    before = calibrate()
    t0 = time.perf_counter()
    import nanowords  # noqa: F401
    import nanowords.cli  # noqa: F401
    imported = time.perf_counter() - t0
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    t1 = time.perf_counter()
    data = workloads.load(workload)
    setup_s = imported + time.perf_counter() - t1
    return workloads, workload, data, setup_s * speed_factor(before, calibrate())


def _passes(workload, plan, budget_s, min_passes=1, min_ops=1):
    """Run whole passes while the next one is expected to fit in budget_s.

    Passes continue past the budget until min_passes passes and min_ops
    operations have run.
    """
    records = []
    start = time.perf_counter()
    last = 0.0
    while (len(records) < min_passes or sum(rec.attempted for rec in records) < min_ops
           or time.perf_counter() - start + last <= budget_s):
        t0 = time.perf_counter()
        rec = Recorder()
        workload.run_pass(plan, rec)
        records.append(rec.finish())
        last = time.perf_counter() - t0
    return records


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _end_to_end(records):
    latencies = sorted(x for rec in records for x in rec.latencies)
    busy = sum(rec.pass_s for rec in records)
    ops = sum(rec.attempted for rec in records)
    p90 = _percentile(latencies, 90)
    return {
        "run_s": statistics.median(rec.pass_s for rec in records),
        "ops_per_s": ops / busy,
        "op_p50_ms": _percentile(latencies, 50) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "states_per_s": sum(rec.states for rec in records) / busy,
    }, {"passes": len(records), "samples": len(latencies),
        "unscaled_run_s": statistics.median(rec.unscaled_s for rec in records),
        "speed_factor": statistics.median(f for rec in records for f in rec.factors),
        "beyond_p90": sum(1 for x in latencies if x > p90)}


def _per_layer(tracer, traced_pass_s, untraced_pass_s):
    stats, expand, generated = tracer.summarize()

    def per_call_us(row):
        return row["self_s"] / row["calls"] * 1e6 if row["calls"] else 0.0

    out = {
        "moves.expand.calls": expand["calls"],
        "moves.expand.children": expand["count"],
        "moves.expand.self_s": expand["self_s"],
        "moves.expand.us_per_state": (expand["incl_s"] / expand["calls"] * 1e6
                                      if expand["calls"] else 0.0),
    }
    within = stats["moves.NeighborCache.within"]
    out["moves.within.kept"] = within["count"]
    out["moves.within.kept_ratio"] = within["count"] / generated if generated else 0.0
    fms = stats["moves.find_move_sites"]
    out.update({"moves.find_move_sites.calls": fms["calls"],
                "moves.find_move_sites.sites": fms["count"],
                "moves.find_move_sites.self_s": fms["self_s"],
                "moves.find_move_sites.us_per_call": per_call_us(fms)})
    per_call = ["moves.apply_move", "core.canonical_form", "lift.phi", "lift.psi",
                "lift.check_conditions", "invariants.lk_phrase", "invariants.clv_phrase",
                "invariants.so_phrase", "invariants.t_invariant", "invariants.lk_lifted",
                "invariants.clv_lifted", "invariants.so_lifted"]
    for name in per_call:
        row = stats[name]
        out.update({f"{name}.calls": row["calls"], f"{name}.self_s": row["self_s"],
                    f"{name}.us_per_call": per_call_us(row)})
    for name, count in (("moves.equivalent", "states"), ("moves.replay_path", "steps"),
                        ("cli.classify", "states")):
        row = stats[name]
        out.update({f"{name}.calls": row["calls"], f"{name}.{count}": row["count"],
                    f"{name}.self_s": row["self_s"]})
    enum = stats["core.enumerate_nanophrases"]
    out.update({"core.enumerate_nanophrases.phrases": enum["count"],
                "core.enumerate_nanophrases.self_s": enum["self_s"],
                "core.enumerate_nanophrases.phrases_per_s": (
                    enum["count"] / enum["incl_s"] if enum["incl_s"] else 0.0)})
    out["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s
    return out


def cmd_setup(args):
    *_rest, setup_s = _setup(args.workload)
    print(json.dumps({"setup_s": setup_s}))


def cmd_run(args):
    workloads, workload, data, setup_s = _setup(args.workload)
    plan, lines = workload.plan(args.seed, data)
    result = {"workload": workload.name, "seed": args.seed, "inputs": len(lines),
              "inputs_digest": workloads.digest(lines), "setup_s": setup_s}
    if not args.trace:
        records = _passes(workload, plan, args.seconds, MIN_PASSES, MIN_OPS)
        result["metrics"], result["detail"] = _end_to_end(records)
    else:
        from spans import Tracer

        records = _passes(workload, plan, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Recorder()
            workload.run_pass(plan, traced)
            traced.finish()
        finally:
            tracer.uninstall()
        records.append(traced)
        untraced = statistics.median(rec.pass_s for rec in records[:-1])
        result["metrics"] = _per_layer(tracer, traced.pass_s, untraced)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}.bin"
        tracer.write(spans_path)
        result["detail"] = {"passes": len(records), "spans": len(tracer.nid),
                            "spans_file": str(spans_path.relative_to(BENCH.parent))}
    result["attempted"] = sum(rec.attempted for rec in records)
    result["failed"] = sum(rec.failed for rec in records)
    result["errors"] = [e for rec in records for e in rec.errors][:5]
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def cmd_record(_args):
    import workloads

    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps(workloads.record_reference(), indent=1, sort_keys=True) + "\n")
    print(json.dumps({"written": str(path.relative_to(BENCH.parent))}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.set_defaults(func=cmd_setup)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=cmd_run)
    record = sub.add_parser("record")
    record.set_defaults(func=cmd_record)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
