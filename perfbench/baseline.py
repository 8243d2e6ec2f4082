"""Summarise saved benchmark runs into the baseline record.

Usage: python3 perfbench/baseline.py RUN_OUTPUT... > perfbench/baseline.json

Each argument is the standard output of one ``run.py`` run.  Its first
line names the workload, seed and trace mode; its last line holds the
metrics.  For every workload the summary gives each end-to-end metric's
median and quartiles over the untraced runs, the median of every
per-layer metric over the traced runs, the tracing overhead (traced
against untraced ``verdict_s_p50``) and the layer shares that test the
workload's reason for being in the benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        head, last = json.loads(lines[0]), json.loads(lines[-1])
        key = (head["workload"], head["trace"])
        runs.setdefault(key, []).append({"seed": head["seed"],
                                         "env": head["environment"],
                                         **last})
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med, "runs": len(values)}


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def why_check(workload, layer):
    """The layer shares behind each workload's stated reason."""
    op = layer["trace.op_s_mean"]
    if workload == "betti-2d":
        share = layer["mesh.integer_rank.self_s"] / op
        return {"claim": "mesh.integer_rank is most of the operation",
                "integer_rank_share": share, "confirmed": share > 0.5}
    if workload == "solve-3d-r2":
        share = layer["polyforms.ElementSpace.gram.total_s"] / op
        return {"claim": "element Grams are most of the operation",
                "element_gram_share": share, "confirmed": share > 0.5}
    svd_hilbert = (layer["linalg.svd.self_s"] / op) + layer["share.hilbert"]
    others = {k: v for k, v in layer.items()
              if k.startswith("share.") and k not in ("share.hilbert",
                                                      "share.linalg")}
    others["share.linalg_without_svd"] = \
        layer["share.linalg"] - layer["linalg.svd.self_s"] / op
    top = max(others, key=others.get)
    return {"claim": "linalg.svd plus hilbert are the largest share",
            "svd_plus_hilbert_share": svd_hilbert,
            "largest_other": {top: others[top]},
            "confirmed": svd_hilbert > others[top]}


def main():
    runs = load(sys.argv[1:])
    out = {}
    for workload in sorted({w for w, _t in runs}):
        plain = runs.get((workload, 0), [])
        traced = runs.get((workload, 1), [])
        entry = {"seeds_untraced": sorted(r["seed"] for r in plain),
                 "seeds_traced": sorted(r["seed"] for r in traced),
                 "failed": sum(r["failed"] for r in plain + traced),
                 "attempted": sum(r["attempted"] for r in plain + traced)}
        if plain:
            entry["end_to_end"] = {name: spread(metric_values(plain, name))
                                   for name in plain[0]["metrics"]}
            entry["environment"] = plain[0]["env"]
        if traced:
            layer = {name: statistics.median(metric_values(traced, name))
                     for name in traced[0]["metrics"]}
            entry["per_layer_median"] = layer
            entry["why"] = why_check(workload, layer)
            if plain:
                base = entry["end_to_end"]["verdict_s_p50"]["median"]
                entry["tracing_overhead"] = {
                    "untraced_verdict_s_p50": base,
                    "traced_verdict_s_p50": layer["trace.verdict_s_p50"],
                    "ratio_minus_one": layer["trace.verdict_s_p50"] / base - 1}
        out[workload] = entry
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
