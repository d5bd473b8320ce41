#!/usr/bin/env python3
"""Memory regression check: a campaign's peak RSS must not grow with its
case count.

Golden data (DESIGN.md §9) lives only as long as its test case, so a
permeability campaign over 8 cases should peak near the same resident
size as one over 2 cases. Runs

    epea_tool campaign run --kind permeability --times 1 --threads 1

at 2 cases and at 8 cases, each in its own process, reads each process's
peak resident set size (ru_maxrss, as getrusage(RUSAGE_CHILDREN) reports
it for a single child) and fails when the 8-case peak exceeds the 2-case
peak by more than SLACK_MB (15 MB).

Usage: campaign_memory_test.py EPEA_TOOL WORKDIR
Exit code 0 when within the slack; 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile

SLACK_MB = 15.0


def peak_rss_mb(tool, workdir, cases):
    """Runs one campaign of `cases` cases; returns its peak RSS in MB."""
    campaign_dir = os.path.join(workdir, f"campaign-{cases}")
    cmd = [tool, "campaign", "run", "--dir", campaign_dir,
           "--kind", "permeability", "--cases", str(cases),
           "--times", "1", "--threads", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{' '.join(cmd)} exited {code}")
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    tool, parent = argv[1], argv[2]
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="campaign_memory_", dir=parent)
    try:
        small = peak_rss_mb(tool, workdir, 2)
        large = peak_rss_mb(tool, workdir, 8)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    growth = large - small
    print(f"peak RSS: 2 cases {small:.1f} MB, 8 cases {large:.1f} MB, "
          f"growth {growth:+.1f} MB (slack {SLACK_MB:.1f} MB)")
    if growth > SLACK_MB:
        print("FAIL: peak RSS grows with the case count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
