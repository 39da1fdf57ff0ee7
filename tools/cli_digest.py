"""One digest over the CLI's answers to the benchmark's operation pools.

Run from the root of a checkout, stdlib only:

    python3 tools/cli_digest.py --seeds 1 2 3

For each seed it builds the generate-thin, verify-grid and fan-algebra pools
with ``bench/workloads.build`` (spec files go to a temporary directory), adds
the fixed ``EXTRAS`` argvs and the ``fan-algebra`` calls of ``SPEC_EXTRAS`` on
the files of ``SPECS`` (written to that directory), calls ``conealg.cli.main`` in
this process on each, and feeds argv, exit code, stdout and stderr into one
sha256.  The temporary directory's path is replaced by ``<spec>`` first, so
two runs agree whenever the CLI answers alike.  It prints one line per pool
and a last line with the total operation count and the digest.

``--root`` names the checkout whose ``src`` and ``bench`` are imported
(default: the one holding this script), so one copy of the script can digest
a parent commit and a change alike.
"""

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("generate-thin", "verify-grid", "fan-algebra")
# The verify argvs cover the certificate's edge cases: a 20-digit exponent,
# zero columns (b_k = 0, a_k = 0, and both in WIDE), 200 variables and a grid
# with no r > 0.  The CLI's generators always pass the certificate, so the
# grid walk of `verify` runs only on the tampered sets of tests/test_verify_grid.py.
WIDE_A = ",".join(str(k % 7) for k in range(200))
WIDE_B = ",".join(str(3 * k % 5) for k in range(200))
EXTRAS = [
    ["verify", "--a", "12345678901234567890,4", "--b", "12345678901234567890,1",
     "--rmax", "8", "--smax", "8"],
    ["verify", "--a", "5,0,3", "--b", "2,4,0", "--rmax", "10", "--smax", "10"],
    ["verify", "--a", WIDE_A, "--b", WIDE_B, "--rmax", "12", "--smax", "12"],
    ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "0", "--smax", "9"],
    # the certificate's answers: the largest grid under the default cap, one
    # past it (exit 3), JSON output, and repeated ratios (degenerate cones)
    ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "999", "--smax", "999"],
    ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "1000", "--smax", "999"],
    ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "6", "--smax", "4", "--format", "json"],
    ["verify", "--a", "2,4,6", "--b", "1,2,3", "--rmax", "9", "--smax", "9"],
    ["fan", "--a", "5,2", "--b", "2,3", "--format", "svg"],
    ["fan", "--a", "1,1", "--b", "1,1", "--format", "svg"],
    ["fan", "--a", "7,5,3,1", "--b", "1,2,4,6", "--format", "svg"],
    ["hilbert-basis", "--ray", "1,0", "--ray", "5,24"],
    ["hilbert-basis", "--ray", "2,7", "--ray", "3,1", "--format", "json"],
    ["hilbert-basis", "--ray", "4,4", "--ray", "2,2"],
    # the library's boundary checks: rays, entries, grid bounds and lengths they reject,
    # and a non-primitive ray that cone() primitivizes
    ["hilbert-basis", "--ray", "0,0", "--ray", "1,0"],
    ["hilbert-basis", "--ray=-1,2", "--ray", "1,0"],
    ["hilbert-basis", "--ray", "2,4", "--ray", "1,0"],
    ["verify", "--a", "5,-1", "--b", "2,3", "--rmax", "3", "--smax", "3"],
    ["verify", "--a", "5,2", "--b", "2,3", "--rmax", "-1", "--smax", "3"],
    ["generators", "--a", "5,2", "--b", "2,3,1"],
    ["fan", "--a", "0,0", "--b", "1,2"],
    # no pool calls limits: its answers, and its checks of zero and negative
    # entries and of unequal lengths
    ["limits", "--a", "5,2,7", "--b", "2,3,7"],
    ["limits", "--a", "5,2,7", "--b", "2,3,7", "--format", "json"],
    ["limits", "--a", "5,0", "--b", "2,3"],
    ["limits", "--a=-1,2", "--b", "2,3"],
    ["limits", "--a", "0,2", "--b", "2,3,1"],
]
# build_fan fan-orders its input: an unordered pair and one with a both-zero column
for pair in (["--a", "2,5", "--b", "3,2"], ["--a", "1,0,5", "--b", "2,0,1"]):
    EXTRAS += [["fan", *pair, "--format", form] for form in ("text", "json", "svg")]
    EXTRAS += [["generators", *pair], ["verify", *pair, "--rmax", "9", "--smax", "9"]]
# columns of equal ratio share one ray point and one degenerate cone object:
# 200 columns on few rays, and ties on the sentinel rays (b = 0 and a = 0)
for pair in (["--a", WIDE_A, "--b", WIDE_B], ["--a", "3,3,0,0,2", "--b", "0,0,4,4,2"]):
    EXTRAS += [["fan", *pair, "--format", form] for form in ("text", "json", "svg")]
    EXTRAS += [["generators", *pair, "--format", "json"]]
# the exponent oracle's spread at its extremes: a single column (no index to
# spread), and 60 columns that are all the same one
EXTRAS += [
    ["generators", "--a", "5", "--b", "2"],
    ["verify", "--a", "5", "--b", "2", "--rmax", "9", "--smax", "9"],
]
SAME_A, SAME_B = ",".join(["3"] * 60), ",".join(["2"] * 60)
EXTRAS += [
    ["generators", "--a", SAME_A, "--b", SAME_B, "--format", "json"],
    ["verify", "--a", SAME_A, "--b", SAME_B, "--rmax", "12", "--smax", "12"],
]
# the monomial-text input: the pinned pair with inferred and with given
# variables, its m2check script, and a parse error (exit 2)
PINNED = ["generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3"]
EXTRAS += [PINNED, [*PINNED, "--vars", "x,y"], [*PINNED, "--format", "m2check"]]
EXTRAS += [["generators", "--ideal-i", "x^", "--ideal-j", "y"]]

# fan-algebra specs: a principal power one past the default cap (exit 3,
# raised by the closed form), a non-principal spec on three cones, whose
# components fold principal powers into one translate, a non-principal spec
# whose fan has degenerate cones on both (0,1) and (1,0), its pieces those of
# intersection_as_fan_algebra(a, b), walked over cells on both axes, and a
# file with an unknown field (exit 2)
SPECS = {
    "cap": {"variables": ["x"], "a": [1], "b": [1], "ideals": [["x"]],
            "pieces": [[[0, 1000001], [1000001, 0]]]},
    "two-ideal": {"variables": ["x", "y"], "a": [2, 1], "b": [1, 2],
                  "ideals": [["x", "y^2"], ["y"]],
                  "pieces": [[[0, 1], [2, 0], [2, 0]], [[0, 2], [0, 2], [1, 0]]]},
    "degenerate": {"variables": ["x", "y", "z"], "a": [2, 2, 0], "b": [0, 1, 1],
                   "ideals": [["x", "y"], ["y", "z"], ["x", "z^2"]],
                   "pieces": [[[0, 0], [2, 0], [2, 0], [2, 0]],
                              [[0, 1], [0, 1], [2, 0], [2, 0]],
                              [[0, 1], [0, 1], [0, 1], [0, 0]]]},
    "unknown-field": {"variables": ["x"], "a": [1], "b": [1], "ideals": [["x"]],
                      "pieces": [[[1, 0], [0, 1]]], "extra": 1},
}
# the fan-algebra calls on them, each a spec name and the options after --spec
SPEC_EXTRAS = [
    ("cap", ["--verify", "2x2"]),
    ("two-ideal", ["--verify", "6x6"]),
    ("two-ideal", ["--format", "json", "--verify", "4x4"]),
    ("degenerate", ["--verify", "6x6"]),
    ("unknown-field", []),
]


def _answer(main, argv):
    """(exit code, stdout, stderr) of one in-process call; an exception that
    escapes ``main`` stands in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = repr(main(argv))
        except (Exception, SystemExit) as e:  # a traceback, or argparse's exit
            code = f"raised {type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def _record(main, argv, spec_dir):
    parts = ["\0".join(argv), *_answer(main, argv)]
    return "\1".join(parts).replace(spec_dir, "<spec>").encode() + b"\2"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]
    import workloads
    from conealg.cli import main as cli_main

    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                spec_dir = Path(tmp) / f"{workload}-{seed}"
                ops = workloads.build(workload, seed, spec_dir)
                pool = hashlib.sha256()
                for op in ops:
                    record = _record(cli_main, op.argv, str(spec_dir))
                    pool.update(record)
                    total.update(record)
                count += len(ops)
                print(f"{workload} seed {seed}: {len(ops)} ops sha256 {pool.hexdigest()}")
        for name, spec in SPECS.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(spec))
        extras = EXTRAS + [["fan-algebra", "--spec", str(Path(tmp) / f"{name}.json"), *options]
                           for name, options in SPEC_EXTRAS]
        for extra in extras:
            total.update(_record(cli_main, extra, tmp))
        count += len(extras)
    print(f"total: {count} ops sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
