#!/usr/bin/env python3
"""Run the twelve acceptance criteria and print one verdict line each.

    scripts/run_acceptance.py          # all twelve
    scripts/run_acceptance.py 9 12     # only criteria 9 and 12

Every verdict line ends with the criterion's wall time.  Exits 0 only if
every criterion run passes.  Failures are printed with their reason and do
not stop the remaining criteria from running.
"""

import argparse
import sys
import time

from ylab.acceptance import ALL_CRITERIA


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("criteria", nargs="*", type=int,
                        choices=range(1, len(ALL_CRITERIA) + 1),
                        metavar="N", help="criterion numbers to run")
    chosen = parser.parse_args(argv).criteria
    selected = [fn for number, fn in enumerate(ALL_CRITERIA, 1)
                if not chosen or number in chosen]
    started = time.perf_counter()
    failures = 0
    for fn in selected:
        begun = time.perf_counter()
        try:
            print(fn().line(), flush=True)  # the line carries its own time
        except Exception as exc:
            failures += 1
            number = fn.__name__.rsplit("_", 1)[-1]
            print(f"criterion {int(number):2d}: FAIL "
                  f"({exc}; {time.perf_counter() - begun:.1f}s)", flush=True)
    total = time.perf_counter() - started
    verdict = "all passed" if failures == 0 else f"{failures} FAILED"
    print(f"-- {len(selected)} criteria, {verdict}, {total:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
