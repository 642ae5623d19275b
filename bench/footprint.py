"""Import footprint of the package: modules loaded, peak RSS and wall time.

Each round imports every module of a tree's ``colnmpc`` in a fresh
interpreter and reports the modules that import added to ``sys.modules``
(their number, and which of top-level ``scipy`` and its heaviest
subpackages are among them: ``scipy_packages``), the process's
``ru_maxrss`` after it (the interpreter's own included), and the import's
wall time.  The sides are ``c``, this checkout, and with
``--baseline DIR`` ``c_baseline``, the tree DIR (say another revision's);
a side is always its own process, never imported beside the other, so
neither side's imports count for the other.  Each side first runs one
round that is not recorded, which builds its C core if it is not built;
then ROUNDS rounds run the sides in turn, with one BLAS thread.  The
times and peaks are minima over the rounds; the module count must be the
same in every round.  Each minimum is followed by its ratio to
c_baseline's (``harness.with_ratios``).  Run from the repository root:

    mkdir -p /tmp/base
    git archive HEAD~1 src | tar -x -C /tmp/base
    python3 bench/footprint.py --baseline /tmp/base > BENCH_footprint.json
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # one BLAS thread

import argparse
import json
import subprocess

ROUNDS = 10
# the scipy packages a side may load: top-level scipy and its heaviest
# subpackages
HEAVY = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse",
         "scipy.special")

# one round, in a fresh interpreter: argv[1] is the tree's src directory
_ROUND = """
import sys
sys.path.insert(0, sys.argv[1])
import glob, os, resource, time
before = set(sys.modules)
start = time.perf_counter()
import colnmpc
for src in sorted(glob.glob(os.path.join(colnmpc.__path__[0], "*.py"))):
    name = os.path.basename(src)[:-3]
    if name != "__init__":
        __import__(f"colnmpc.{name}")
import_s = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
added = set(sys.modules) - before
import json
print(json.dumps({"import_s": import_s, "peak_rss_mb": peak_kb / 1024,
                  "modules": len(added), "backend": colnmpc.KERNEL_BACKEND,
                  "heavy": sorted(set(%r) & added)}))
""" % (HEAVY,)


def _round(tree):
    """One round's figures for the source tree ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", _ROUND, os.path.join(tree, "src")],
        capture_output=True, text=True, timeout=600)
    if done.returncode:
        sys.exit(f"error: importing the tree {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(trees):
    """The record of the sides ``trees`` ({side: source tree})."""
    first = {side: _round(tree) for side, tree in trees.items()}
    best = {"import_s_min": {}, "peak_rss_mb_min": {}}
    for _ in range(ROUNDS):
        for side, tree in trees.items():
            got = _round(tree)
            if (got["modules"], got["heavy"], got["backend"]) != \
                    (first[side]["modules"], first[side]["heavy"],
                     first[side]["backend"]):
                sys.exit(f"error: side {side} loaded other modules in "
                         "another round")
            for key in best:
                value = got[key[:-len("_min")]]
                best[key][side] = min(value, best[key].get(side, value))
    return harness.with_ratios({
        "modules": {side: got["modules"] for side, got in first.items()},
        "scipy_packages": {side: got["heavy"] for side, got in first.items()},
        "kernel_backend": {side: got["backend"]
                           for side, got in first.items()},
        **best,
        "rounds": ROUNDS,
        "host": harness.host(),
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", metavar="DIR",
                    help="a source tree (say another revision's) whose "
                         "colnmpc is measured as c_baseline")
    baseline = ap.parse_args().baseline
    trees = {"c": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}
    if baseline is not None:
        trees["c_baseline"] = baseline
    print(json.dumps(measure(trees), indent=2))


if __name__ == "__main__":
    main()
