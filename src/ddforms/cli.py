"""Command-line interface.

Subcommands: betti (relative Betti numbers), check (the three structural
condition checkers, and the row and column exactness of the broken double
complex under ``double_complex``), harmonic (dimension table of all graded
harmonic spaces, the Betti dimension identities, and under ``skeleton``
the codimension-one skeleton projection for every degree k >= 2 and the
degree-0 skeleton identity for every stratum), chain (the full
isomorphism chain verification for every form degree), and solve (the
discrete Hodge-Laplace problem on the conforming complex with a built-in
source, drawn from the standard library's seeded generator).

Meshes come from a JSON file or from the built-in catalog via
``catalog:name`` or ``catalog:name:size``.  Both output formats write the
report as ``_canonical`` gives it, with fixed float formatting, and
structured output is JSON with sorted keys, so identical configurations
produce byte-identical reports.  The exit status is zero
exactly when every requested verification passes, one when one fails,
and two, with a single ``error:`` line, for invalid input or an
unsupported configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import numpy as np

from ddforms import distrib
from ddforms.assembly import export_matrix, operator_D, operator_T
from ddforms.hilbert import harmonic_space, laplace_solve, subspace_transfer
from ddforms.mesh import (MeshError, betti_numbers, generate_mesh,
                          load_mesh_file, mark_pair)
from ddforms.polyforms import Family, FamilyError, FormError


def resolve_mesh(spec, mark):
    """Build the mesh a --mesh argument names, applying the marking mode."""
    if spec.startswith("catalog:"):
        parts = spec.split(":", 2)
        name = parts[1]
        try:
            size = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise MeshError(f"catalog size must be an integer: {spec}") from None
        if mark == "file":
            raise MeshError("marking mode 'file' needs a mesh file")
        return generate_mesh(name, size, mark)
    pair = load_mesh_file(spec)
    return pair if mark == "file" else mark_pair(pair, mark)


def make_family(name, degree):
    if degree < 1:
        raise MeshError(f"family degree must be >= 1, got {degree}")
    if name not in ("trimmed", "full"):
        raise MeshError(f"unknown family {name!r}")
    return Family(name, degree)


def mesh_summary(pair):
    return {
        "top_dim": pair.top_dim,
        "simplices": {m: len(pair.simplices(m))
                      for m in range(pair.top_dim + 1)},
        "marked": len(pair.marked),
        "betti": betti_numbers(pair),
    }


# -- subcommand runners ---------------------------------------------------


def run_betti(pair, family, args):
    return {"betti": betti_numbers(pair)}, True


def run_check(pair, family, args):
    rep = distrib.check_conditions(pair, family)
    double = distrib.verify_double_complex(pair, family)
    out = {
        "local_exactness": {m: r["passed"]
                            for m, r in rep["local_exactness"].items()},
        "decomposition": {k: r["passed"]
                          for k, r in rep["decomposition"].items()},
        "patch": {
            "passed": rep["patch"]["passed"],
            "failures": rep["patch"]["failures"],
        },
        "double_complex": double,
        "passed": rep["passed"] and double["passed"],
    }
    return out, out["passed"]


def run_harmonic(pair, family, args):
    fam_rep = distrib.harmonic_family(pair, family)
    betti = betti_numbers(pair)
    n = pair.top_dim
    identities = {}
    ok = True
    for k in range(n + 1):
        conf = fam_rep["conforming"][k]
        chain = fam_rep["chain"][n - k]
        good = conf == chain == betti[n - k]
        identities[k] = {"conforming": conf, "chain": chain,
                         "betti": betti[n - k], "ok": good}
        ok = ok and good
    projection = {}
    for k in range(2, n + 1):
        rep = distrib.skeleton_projection(pair, family, k)
        projection[k] = {"dims": rep["dims"], "smin": rep["smin_rel"],
                         "ok": rep["ok"]}
    degree_zero = {m: distrib.skeleton_degree_zero_identity(
        pair, family, m) for m in range(n + 1)}
    skeleton_ok = all(e["ok"] for part in (projection, degree_zero)
                      for e in part.values())
    ok = ok and skeleton_ok
    out = {
        "degree_graded": fam_rep["lambda"],
        "stratum_graded": fam_rep["gamma"],
        "conforming": fam_rep["conforming"],
        "chain": fam_rep["chain"],
        "identities": identities,
        "skeleton": {"projection": projection, "degree_zero": degree_zero,
                     "passed": skeleton_ok},
        "passed": ok,
    }
    return out, ok


def run_chain(pair, family, args):
    out = {k: distrib.verify_chain(pair, family, k)
           for k in range(pair.top_dim + 1)}
    out["passed"] = all(rep["passed"] for rep in out.values())
    return out, out["passed"]


def run_solve(pair, family, args):
    cx = distrib.conforming_complex(pair, family)
    tol = args.tol
    out = {}
    ok = True
    # the standard library's generator, which numpy imports already:
    # importing numpy.random would cost a fresh process 10-15 ms
    rng = random.Random(20240823)
    for i in range(len(cx)):
        dim = cx.spaces[i].dim
        f = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
        u, p = laplace_solve(cx, i, f)
        # in the orthonormal frame v = L^T u Gram norms are 2-norms, and
        # the Laplacian is A_i^T A_i + A_{i-1} A_{i-1}^T, A a whitened_diff
        W = cx.spaces[i].whitening
        v = W.mul_lt(u)
        res_vec = -W.mul_lt(f - p)
        if i < len(cx.diffs):
            res_vec += cx.whitened_diff(i, cx.whitened_diff(i, v),
                                        transpose=True)
        if i > 0:
            res_vec += cx.whitened_diff(i - 1, cx.whitened_diff(
                i - 1, v, transpose=True))
        # relative to the source: f - p is roundoff when f is harmonic
        scale = max(np.linalg.norm(W.mul_lt(f)), 1e-30)
        residual = float(np.linalg.norm(res_vec) / scale)
        h = harmonic_space(cx, i)
        overlap = float(np.linalg.norm(subspace_transfer(h, u)))
        good = residual < tol and overlap < tol
        out[i] = {"dim": dim, "harmonic_dim": h.dim, "residual": residual,
                  "harmonic_overlap": overlap, "ok": good}
        ok = ok and good
    out["passed"] = ok
    return out, ok


RUNNERS = {
    "betti": run_betti,
    "check": run_check,
    "harmonic": run_harmonic,
    "chain": run_chain,
    "solve": run_solve,
}


def dump_operators(pair, family, directory):
    """Write every stratum operator and total-complex differential as
    coordinate-format text files."""
    os.makedirs(directory, exist_ok=True)
    n = pair.top_dim
    for m in range(n + 1):
        for k in range(m):
            for name, build in (("D", operator_D), ("T", operator_T)):
                export_matrix(build(pair, m, k, family),
                              os.path.join(directory, f"{name}_{m}_{k}.txt"))
    cx = distrib.total_complex(pair, family)
    for i, d in enumerate(cx.diffs):
        export_matrix(d, os.path.join(directory, f"d_total_{i}.txt"))


# -- rendering ------------------------------------------------------------


def _canonical(value):
    """The report as both output formats write it, byte-deterministic:
    floats rounded to 12 decimals in exponent form, tuples as lists and
    keys as strings, a tuple key (k, b) as "k,b", in insertion order."""
    if isinstance(value, dict):
        return {",".join(map(str, key)) if isinstance(key, tuple)
                else str(key): _canonical(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12e}")
    return value


def _render_table(doc, out):
    def walk(prefix, value):
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            out.write(f"{prefix[:-1]:<44} {' '.join(str(v) for v in value)}\n")
        else:
            out.write(f"{prefix[:-1]:<44} {value}\n")

    walk("", doc)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddforms",
        description="Distributional de Rham complexes on simplicial meshes")
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--mesh", required=True,
                        help="mesh file path or catalog:name[:size]")
    parser.add_argument("--family", default="trimmed",
                        choices=("trimmed", "full"))
    parser.add_argument("--degree", type=int, default=1,
                        help="polynomial degree r of the family")
    parser.add_argument("--mark", default="none",
                        choices=("none", "full", "half", "file"),
                        help="boundary marking mode")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="verification tolerance")
    parser.add_argument("--format", default="table",
                        choices=("table", "structured"))
    parser.add_argument("--strict", action="store_true",
                        help="fail when the condition checkers warn")
    parser.add_argument("--dump-operators", metavar="DIR",
                        help="export assembled operators to a directory")
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if not 0 < args.tol < np.inf:
        print("error: tolerance must be positive and finite", file=sys.stderr)
        return 2
    try:
        pair = resolve_mesh(args.mesh, args.mark)
        family = make_family(args.family, args.degree)
        passed = True
        warnings = []
        if args.command in ("harmonic", "chain", "solve"):
            cond = distrib.check_conditions(pair, family)
            if not cond["passed"]:
                warnings.append("condition checkers reported failures")
                if args.strict:
                    passed = False
        report, ok = RUNNERS[args.command](pair, family, args)
        passed = passed and ok
        if args.dump_operators:
            try:
                dump_operators(pair, family, args.dump_operators)
            except OSError as exc:
                print(f"error: cannot write operators: {exc}", file=sys.stderr)
                return 2
    except (MeshError, FormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FamilyError as exc:
        print(f"error: unsupported configuration: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"error: unsupported configuration: numerically singular "
              f"system ({exc})", file=sys.stderr)
        return 2

    doc = _canonical({
        "command": args.command,
        "config": {
            "mesh": args.mesh,
            "family": args.family,
            "degree": args.degree,
            "mark": args.mark,
            "tol": args.tol,
        },
        "mesh": mesh_summary(pair),
        "report": report,
        "warnings": warnings,
        "passed": passed,
    })
    if args.format == "structured":
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        _render_table(doc, out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
