"""CPU and memory of this process plus its worker processes, from /proc.

Workers are the ``multiprocessing`` children of the measuring process
(the pool forks them from it), so ``active_children()`` finds them
without reaching into the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import resource

_TICK = os.sysconf("SC_CLK_TCK")


def _child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def _utime_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0  # exited between listing and reading
    return int(fields[11]) / _TICK


def _status_mb(pid: int | str, *keys: str) -> list[float]:
    """The named ``/proc/<pid>/status`` fields (kB lines) in MB; zeros for
    a process that has exited."""
    found = dict.fromkeys(keys, 0.0)
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                key = line.split(":", 1)[0]
                if key in found:
                    found[key] = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return [found[k] for k in keys]


def cpu_user_s() -> float:
    """User-mode CPU seconds of this process, its live workers, and the
    workers it has already reaped.  Differences of two readings cost the
    work in between, whichever process did it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    return own + reaped + sum(_utime_s(pid) for pid in _child_pids())


class PeakMemory:
    """Peak resident memory of this process plus what its workers added.

    A forked worker starts with the driver's pages mapped copy-on-write,
    and they count in its resident set; how many depends on the moment of
    the fork.  So a worker is charged its peak (VmHWM) minus its resident
    set when first seen, and the inherited pages are counted once, in the
    driver.  Creating the object restarts the driver's own VmHWM where
    the kernel allows it (otherwise it stays the running maximum).
    """

    def __init__(self) -> None:
        self._first_rss: dict[int, float] = {}
        self._peak: dict[int, float] = {}
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass

    def sample(self) -> None:
        """Read the live workers; call once soon after they start."""
        for pid in _child_pids():
            hwm, rss = _status_mb(pid, "VmHWM", "VmRSS")
            if hwm:
                self._first_rss.setdefault(pid, rss)
                self._peak[pid] = hwm

    def total_mb(self) -> float:
        (own,) = _status_mb("self", "VmHWM")
        return own + sum(
            max(peak - self._first_rss[pid], 0.0)
            for pid, peak in self._peak.items()
        )
