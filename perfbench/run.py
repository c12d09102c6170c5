"""Benchmark of the repro library: cold matching, HTTP serving, churn.

Run from the root of a checkout::

    python3 perfbench/run.py --workload http_small --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload and seed with spans recorded
around the benchmark's calls into the program and prints every
per-layer metric instead (a metric of a layer the workload never
calls reads 0; one the workload owns must have been measured).
The spans are written to ``.perfbench_out/`` when the run ends.  The
last line of standard output is the result object; the line before it
holds the machine facts and every measured row, each stamped
``cold``, ``warm`` or ``mixed``.  See ``perfbench/README.md``.

``raw_cold_1m`` runs the same way but is not among the workloads of
``BENCHMARK.json``: on a shared host its run-to-run spread is as wide
as the bound, so it is measured by hand, not gated.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import harness

WORKLOADS = ("raw_cold_1m", "http_small", "churn_64k")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    spec_path = harness.ROOT / "BENCHMARK.json"
    if not harness.program_present() or not spec_path.is_file():
        print(f"perfbench: no program under {harness.SRC} or no "
              f"{spec_path.name} next to it", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(harness.SRC))

    if args.workload == "raw_cold_1m":
        import raw_cold as workload
    elif args.workload == "http_small":
        import http_small as workload
    else:
        import churn as workload

    trace = harness.Trace(bool(args.trace))
    t0 = harness.clock()
    outcome = workload.run(args.seed, args.seconds, trace, args.size)
    wall = harness.clock() - t0
    if trace.enabled:
        outcome.per_layer["bench.trace_overhead_frac"] = (
            len(trace.spans) * harness.span_cost_s() / wall)
        trace.write(
            harness.OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed})

    listed = spec["per_layer" if trace.enabled else "end_to_end"]
    measured = outcome.per_layer if trace.enabled else outcome.end_to_end
    metrics, rows = {}, []
    for m in listed:
        name, unit = m["name"], m["unit"]
        if name in measured:
            value = float(measured[name])
            state = outcome.state.get(name, "cold")
        elif trace.enabled and name not in workload.PER_LAYER:
            value, state = 0.0, "not on this workload's path"
        else:
            raise KeyError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
        rows.append({"name": name, "value": value, "unit": unit,
                     "state": state, "samples": outcome.samples.get(name, 0)})
        if trace.enabled:
            rows[-1]["moves"] = workload.PER_LAYER.get(name, "none")

    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "wall_s": wall, "machine": harness.machine_facts(),
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        "workload_facts": outcome.facts, "rows": rows + outcome.rows,
        "errors": outcome.errors,
    }}, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
