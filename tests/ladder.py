"""The structured catalog ladder: every command on every catalog shape,
under every marking and three families, each in a fresh process.

    python3 tests/ladder.py [CHECKOUT] > ladder.txt

runs the 360 commands (betti, check, harmonic, chain and solve, on the 8
catalog meshes, under --mark none, full and half, with trimmed r=1,
trimmed r=2 and full r=2, --format structured) against CHECKOUT/src, by
default the checkout this file is in, and prints one line per command:
its argv, its exit code and the sha256 of its stdout and of its stderr.
Two checkouts are compared by running it on each and diffing the two
outputs.  BLAS runs one thread, so the floats do not depend on the
host's thread count.  pytest does not collect this file.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

COMMANDS = ("betti", "check", "harmonic", "chain", "solve")
MESHES = ("interval", "triangle", "square_grid", "annulus", "tetrahedron",
          "cube_tet", "solid_ring", "sphere_boundary")
MARKS = ("none", "full", "half")
FAMILIES = (("trimmed", "1"), ("trimmed", "2"), ("full", "2"))


def ladder():
    for command in COMMANDS:
        for mesh in MESHES:
            for mark in MARKS:
                for family, r in FAMILIES:
                    yield [command, "--mesh", f"catalog:{mesh}",
                           "--mark", mark, "--family", family,
                           "--degree", r, "--format", "structured"]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for argv in ladder():
        run = subprocess.run([sys.executable, "-m", "ddforms.cli", *argv],
                             capture_output=True, env=env)
        out, err = (hashlib.sha256(x).hexdigest()
                    for x in (run.stdout, run.stderr))
        print(" ".join(argv), run.returncode, out, err, flush=True)


if __name__ == "__main__":
    main()
