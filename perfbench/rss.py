"""Peak resident memory of this process since it started its program.

`ru_maxrss` is no good for that: a child inherits, across exec, the peak of
the process it was forked from, so every child would read at least the
benchmark's own peak.  VmHWM in /proc/self/status belongs to the address
space the program runs in.
"""

from __future__ import annotations

import resource


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
