"""The ddforms benchmark: CLI operations timed end to end, from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain-2d --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --selftest

A run is a closed loop: one client, one operation in flight.  Each
operation is one ``ddforms.cli.main(argv)`` call in a new Python process,
which is what a command-line user pays; it also starts the lru-cached
element tables of ``polyforms`` cold, so no cache carries work from one
operation into the next.  The child's BLAS threads are capped at the
number of usable CPUs.  The seed draws every input, and all mesh files are
written before timing starts.  Each report is checked against the oracle
in ``inputs.py``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` every child is traced (see ``tracer.py``) and the last line
carries the per-layer metrics.  End-to-end numbers come only from
untraced runs.  ``--selftest`` runs one untraced and one traced operation
per workload on tiny meshes and checks that every metric named in
BENCHMARK.json comes out finite, and that the oracle catches a corrupted
expectation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import EXPECTED_BETTI, MARKS, WORKLOADS, make_schedule, oracle
from tracer import PER_LAYER, layer_metrics, op_profile

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PROBES = 10         # set-up-only children per run, after one warm-up
BLOCK = len(MARKS)  # one operation per marking, in seed-shuffled order
MAX_OPS = 20 * BLOCK
HARD_LIMIT_S = 170  # a run never outlives this, whatever --seconds says
INF_REPORTED = 1e300  # JSON has no infinity; a median over failures reads this

END_TO_END = {
    "verdict_s_p50": "s",
    "verdicts_per_min": "1/min",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def blas_threads():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(blas_threads())
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def run_child(spec, env, deadline):
    """Spawn one child, wait for it and return its result record."""
    result_path = spec["result"]
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             json.dumps(spec)], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _out, err = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "wall_s": time.monotonic() - spawned,
                "spawned": spawned}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.monotonic() - spawned
    try:
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
    except (OSError, ValueError):
        last = (err.strip().splitlines() or [""])[-1]
        result = {"error": f"no result (exit {proc.returncode}): {last}"}
    result["wall_s"] = wall
    result["spawned"] = spawned
    return result


def run_ops(workload, seed, seconds, trace, workdir, quick=False):
    """Set up, then run operations until ``seconds`` have been measured.

    Operations run in whole blocks of one per marking, and a block starts
    only if it is expected to end within ``seconds``, at least one block
    per run.  The markings' costs differ, so whole blocks keep a run's
    median from depending on how the seed happened to mix them."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    env = child_env()
    count = 2 if quick else MAX_OPS
    ops = make_schedule(workload, seed, count, str(workdir), quick=quick)
    setups = []
    if not quick:
        for i in range(PROBES + 1):
            res = run_child({"probe": True,
                             "result": str(workdir / f"probe{i}.json")},
                            env, deadline)
            if "entry" not in res:
                raise RuntimeError(f"set-up probe failed: {res.get('error')}")
            if i:
                setups.append(res["entry"] - res["spawned"])
    records = []
    begin = time.monotonic()
    for first in range(0, len(ops), BLOCK):
        if records and not quick:
            block_s = BLOCK * statistics.median(r["wall_s"] for r in records)
            if time.monotonic() - begin + block_s > seconds:
                break
        for op in ops[first:first + BLOCK]:
            traced = op["index"] == 1 if quick else trace
            records.append(run_op(op, traced, env, deadline, workdir))
            if time.monotonic() > deadline:
                return records, setups
    return records, setups


def run_op(op, traced, env, deadline, workdir):
    """Run one operation and check its report with the oracle."""
    res = run_child({"argv": op["argv"], "op": op["index"], "trace": traced,
                     "result": str(workdir / f"op{op['index']}.json")},
                    env, deadline)
    reasons = oracle(op, res)
    rec = {"op": op["index"], "argv": op["argv"], "mark": op["mark"],
           "traced": traced, "passed": not reasons, "reasons": reasons,
           "op_s": res.get("op_s", res["wall_s"]),
           "cpu_s": res.get("cpu_s", 0.0),
           "rss_mb": res.get("rss_mb", 0.0),
           "wall_s": res["wall_s"], "sizes": res.get("sizes"),
           "stdout": res.get("stdout", "")}
    if "entry" in res:
        rec["setup_s"] = res["entry"] - res["spawned"]
    if "trace" in res:
        _prof, _layers, closure = op_profile(res["trace"], rec["op_s"])
        rec["closure_s"] = closure
        if abs(closure) > 1e-6 * max(rec["op_s"], 1.0):
            rec["passed"] = False
            rec["reasons"].append(f"span times do not add up: {closure}")
        rec["trace"] = res["trace"]
    return rec


def end_to_end(records, setups):
    setups = setups + [r["setup_s"] for r in records if "setup_s" in r]
    times = sorted(r["op_s"] if r["passed"] else math.inf for r in records)
    p50 = statistics.median(times)
    passed = sum(r["passed"] for r in records)
    total = sum(r["op_s"] for r in records)
    values = {
        "verdict_s_p50": (p50 if math.isfinite(p50) else INF_REPORTED,
                          len(records)),
        "verdicts_per_min": (60.0 * passed / total, len(records)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), len(records)),
    }
    return {name: {"value": v, "unit": END_TO_END[name], "samples": n}
            for name, (v, n) in values.items()}


def per_layer(records):
    traced = [(r["trace"], r["op_s"], r["cpu_s"])
              for r in records if "trace" in r]
    if not traced:
        raise RuntimeError("no traced operation completed")
    metrics = layer_metrics(traced)
    for spec in metrics.values():
        spec["samples"] = len(traced)
    return metrics


def print_records(records):
    for rec in records:
        line = {k: v for k, v in rec.items() if k not in ("trace", "stdout")}
        print(json.dumps(line, sort_keys=True))


def print_table(metrics):
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']:8s} "
              f"samples={m['samples']}")


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def check_checkout():
    if not (ROOT / "src" / "ddforms" / "cli.py").is_file():
        print(f"error: no ddforms sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)


def benchmark(args):
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        records, setups = run_ops(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": environment(),
                      "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}))
    print_records(records)
    metrics = per_layer(records) if args.trace else end_to_end(records, setups)
    print_table(metrics)
    failed = sum(not r["passed"] for r in records)
    print(f"fail_frac {failed / len(records):.6g} "
          f"({failed} of {len(records)} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))


def selftest():
    """Quick check of the whole pipeline on tiny meshes."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []
    want_e2e = {m["name"] for m in declared["end_to_end"]}
    want_layer = {m["name"] for m in declared["per_layer"]}
    if want_e2e != set(END_TO_END):
        problems.append(f"end-to-end names differ: {want_e2e ^ set(END_TO_END)}")
    have_layer = {m["name"] for m in PER_LAYER}
    if want_layer != have_layer:
        problems.append(f"per-layer names differ: {want_layer ^ have_layer}")
    for workload in WORKLOADS:
        workdir = ROOT / ".perfbench" / f"selftest-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            records, setups = run_ops(workload, 0, 0, False, workdir,
                                      quick=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_records(records)
        for rec in records:
            if not rec["passed"]:
                problems.append(f"{workload} op {rec['op']}: {rec['reasons']}")
        metrics = end_to_end([r for r in records if not r["traced"]], setups)
        metrics.update(per_layer(records))
        for name in want_e2e | want_layer:
            value = metrics.get(name, {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{workload}: metric {name} = {value!r}")
        # The oracle must turn a corrupted expectation into a failure of
        # exactly the operations that use it.
        untraced = records[0]
        key = (WORKLOADS[workload]["shape"], untraced["mark"])
        bad = dict(EXPECTED_BETTI)
        bad[key] = list(bad[key])
        bad[key][-1] += 1
        for rec in records:
            result = {"rc": 0, "stdout": rec["stdout"]}
            op = {"argv": rec["argv"], "mark": rec["mark"],
                  "shape": key[0]}
            should_fail = rec["mark"] == untraced["mark"]
            if bool(oracle(op, result, bad)) != should_fail:
                problems.append(f"{workload}: corrupted oracle missed op "
                                f"{rec['op']}")
        print(f"selftest {workload}: {len(records)} operations, "
              f"{len(metrics)} metrics")
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    check_checkout()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None:
        parser.error("--workload is required")
    benchmark(args)


if __name__ == "__main__":
    main()
