"""One repetition of one workload in a fresh interpreter.

Prints one JSON line: set-up time, body wall time, ru_maxrss, op counts,
per-command latencies and, when traced, the per-layer metrics and the cost
of one wrapped call (with --malloc, only the tracemalloc peak of the
tables spans).  run.py starts this script once per repetition;
``--setup-only`` stops after set-up, which is how run.py takes several
set-up samples per run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

# public FieldElement ops timed per tower shape in traced runs: the median
# over MICRO_BATCHES batches of the mean time per op
MICRO_TOWERS = {"F4096_F2": (2, 1, 12), "F3125_F5": (5, 1, 5), "F4096_F64": (2, 6, 2)}
MICRO_OPS = {"mul": 400, "pow": 40, "inv": 40}
MICRO_BATCHES = 5


def field_op_micros(seed: int) -> dict:
    """Microseconds per public mul/pow/inv on seeded operands, per tower."""
    from cppforge import make_extension, make_prime_field, make_tower

    rng = random.Random(seed)
    out = {}
    for label, (p, r, n) in MICRO_TOWERS.items():
        base = make_prime_field(p)
        if r > 1:
            base = make_extension(base, r)
        tower = make_tower(base, n)
        order = tower.order
        elems = [tower.decode(rng.randrange(1, order)) for _ in range(2 * MICRO_OPS["mul"])]
        exps = [rng.randrange(2, order - 1) for _ in range(MICRO_OPS["pow"])]
        ops = {
            "mul": lambda: [elems[2 * i] * elems[2 * i + 1] for i in range(MICRO_OPS["mul"])],
            "pow": lambda: [elems[i] ** e for i, e in enumerate(exps)],
            "inv": lambda: [elems[i].inv() for i in range(MICRO_OPS["inv"])],
        }
        for op, fn in ops.items():
            per_op = []
            for _ in range(MICRO_BATCHES):
                t0 = time.perf_counter()
                fn()
                per_op.append((time.perf_counter() - t0) / MICRO_OPS[op] * 1e6)
            out[f"fields.{op}_us.{label}"] = statistics.median(per_op)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--malloc", action="store_true",
                    help="with --trace 1: run tracemalloc in tables spans, report only its peak")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-order", type=int)
    ap.add_argument("--calls", type=int)
    ap.add_argument("--reference")
    ap.add_argument("--record", help="write the session's [argv, code, digest] list here")
    args = ap.parse_args(argv)

    import cppforge

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(malloc=args.malloc)
        tracer.install()

    session = None
    if args.workload == "cli_session":
        session = workloads.draw_session(args.seed)
        if args.calls is not None:
            session = session[: args.calls]
        workloads.setup_session(session)
    else:
        workloads.setup_sweeps(args.max_order)
    setup_s = time.perf_counter() - T_START
    report = {"setup_s": setup_s, "cppforge": os.path.abspath(cppforge.__file__)}
    if args.setup_only:
        if tracer is not None:
            tracer.uninstall()
        print(json.dumps(report))
        return 0

    out = workloads.Outcome()
    t0 = time.perf_counter()
    if session is not None:
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = workloads.load_reference(args.reference or workloads.REFERENCE_PATH)
        record = workloads.run_session(session, reference, out)
    else:
        workloads.run_sweeps(args.workload, args.seed, args.max_order, out)
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.uninstall()
        report["violations"] = tracer.violations
        report["spans"] = tracer.spans
        if args.malloc:
            report["tables_peak_mb"] = tracer.tables_peak / 2**20
        else:
            report["layers"] = tracer.metrics()
            report["layers"]["cli.out_bytes"] = out.out_bytes
            report["layers"].update(field_op_micros(args.seed))
            report["span_cost_s"] = tracing.span_cost_s()
    else:
        import tracing

        report["violations"] = ["wrapper found in an untraced run"] if tracing.wrapped_anywhere() else []
    if args.record and session is not None:
        rows = ",\n".join(json.dumps(row) for row in record)
        with open(args.record, "w") as fh:
            fh.write(f'{{"seed": {args.seed},\n "calls": [\n{rows}\n]}}\n')

    import numpy

    report.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=out.attempted,
        failed=out.failed,
        problems=out.problems,
        latencies=out.latencies,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
