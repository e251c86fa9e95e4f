"""Cross-check the tracer against ROADMAP.md's profile of the random corpus.

    python3 perfbench/crosscheck.py

Runs ``to_wo`` alone, traced, over the periodic shapes (seed 5024, 420 draws,
no bands, no renaming) -- the loop of the test
``test_to_wo_postconditions_hold_on_random_inputs`` -- and prints the split
windows built (calls of ``enumerate_cuts`` from ``splits``) and the calls of
``boundary_split``.  ROADMAP.md's cProfile run of that test counted 7,240 and
596,274 at the commit the profile was taken; the script exits 1 when the
counts differ from those.
"""

from __future__ import annotations

import sys

import run
import tracer as tracing
import workloads

EXPECTED_WINDOWS = 7240
EXPECTED_BOUNDARY_SPLITS = 596274


def main() -> int:
    src = run.package_src()
    if src is None:
        return 2
    ld = run.import_package(src)
    shapes = workloads.periodic_shapes(ld)

    t = tracing.Tracer()
    t.install()
    refused = 0
    t.active = True
    for d in shapes:
        try:
            ld.to_wo(d)
        except ValueError:
            refused += 1
        t.end_input()
    t.active = False

    windows = t.count("line.enumerate_cuts", "splits")
    splits = t.count("decomposition.boundary_split")
    print(f"inputs {len(shapes)}, converted {len(shapes) - refused}, refused {refused}")
    print(f"split windows built {windows} (expected {EXPECTED_WINDOWS})")
    print(f"boundary_split calls {splits} (expected {EXPECTED_BOUNDARY_SPLITS})")
    ok = (windows, splits) == (EXPECTED_WINDOWS, EXPECTED_BOUNDARY_SPLITS)
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
