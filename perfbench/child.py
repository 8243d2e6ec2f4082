"""One benchmark operation: ``ddforms.cli.main(argv)`` in a fresh process.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the argv, the result file, the operation id and whether to
trace.  With ``"probe": true`` the child only imports ddforms and records
when it got there.  The result file receives the monotonic time of entry
into ``cli.main`` (the parent's spawn time subtracted from it is the
set-up time), the exit status, the structured report, the operation wall
time and CPU time, the peak RSS and, after the timed part, the input sizes.
"""

import io
import json
import resource
import sys
import time
import traceback

import ddforms.cli as cli


def input_sizes(argv):
    """Simplex counts, marked count and total-complex dimensions."""
    args = cli.build_parser().parse_args(argv)
    pair = cli.resolve_mesh(args.mesh, args.mark)
    family = cli.make_family(args.family, args.degree)
    n = pair.top_dim
    strata = [len(pair.stratum(m)) for m in range(n + 1)]
    total = [sum(strata[m] * family.space(m, i - n + m).size
                 for m in range(n - i, n + 1)) for i in range(n + 1)]
    return {"simplices": [len(pair.simplices(m)) for m in range(n + 1)],
            "marked": len(pair.marked), "total_complex_dims": total}


def main():
    spec = json.loads(sys.argv[1])
    entry = time.monotonic()
    result = {"entry": entry}
    if not spec.get("probe"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer(spec["op"])
            tracer.install()
        out = io.StringIO()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            result["rc"] = cli.main(spec["argv"], out=out)
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception as exc:  # reported as a failed operation
            traceback.print_exc()
            result["error"] = f"{type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            op_s=op_s,
            cpu_s=(after.ru_utime - usage.ru_utime
                   + after.ru_stime - usage.ru_stime),
            rss_mb=after.ru_maxrss / 1024,
            stdout=out.getvalue())
        if tracer is not None:
            tracer.enabled = False
            result["trace"] = tracer.dump()
        if result.get("rc") == 0:
            result["sizes"] = input_sizes(spec["argv"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
