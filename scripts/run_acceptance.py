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


def run_criteria(chosen=()):
    """Yield (number, passed, verdict line, wall seconds) per criterion run.

    Runs every criterion when `chosen` is empty, else those numbered in it.
    """
    for number, fn in enumerate(ALL_CRITERIA, 1):
        if chosen and number not in chosen:
            continue
        begun, passed = time.perf_counter(), True
        try:
            line = fn().line()  # the line carries its own time
        except Exception as exc:
            passed = False
            line = (f"criterion {number:2d}: FAIL "
                    f"({exc}; {time.perf_counter() - begun:.1f}s)")
        yield number, passed, line, time.perf_counter() - begun


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # no `choices`: argparse checks the empty list against them and fails
    parser.add_argument("criteria", nargs="*", type=int, metavar="N",
                        help="criterion numbers to run")
    chosen = parser.parse_args(argv).criteria
    if any(not 1 <= c <= len(ALL_CRITERIA) for c in chosen):
        parser.error(f"criterion numbers run from 1 to {len(ALL_CRITERIA)}")
    started = time.perf_counter()
    runs = failures = 0
    for _, passed, line, _ in run_criteria(chosen):
        print(line, flush=True)
        runs += 1
        failures += not passed
    total = time.perf_counter() - started
    verdict = "all passed" if failures == 0 else f"{failures} FAILED"
    print(f"-- {runs} criteria, {verdict}, {total:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
