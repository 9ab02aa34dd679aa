"""CPU, memory, child-process and shared-memory accounting via /proc."""

from __future__ import annotations

import os
import resource
import time

_TICKS = os.sysconf("SC_CLK_TCK")
SHM_DIR = "/dev/shm"


def cpu_seconds(pid: int) -> float | None:
    """User+system CPU of ``pid`` (None once it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children(pid: int) -> list[int]:
    """Live direct children of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids, timeout: float = 5.0) -> list[int]:
    """Wait until every pid has exited; return the ones still alive."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if alive(pid)]
    return left


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments visible here."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class CpuMeter:
    """CPU used by a set of processes between ``start`` and ``stop``.

    Processes first seen after ``start`` count from zero; one that
    exits before ``stop`` keeps its last reading (/proc has 10 ms
    resolution, so the meter is for windows of seconds).
    """

    def __init__(self) -> None:
        self.first: dict[int, float] = {}
        self.last: dict[int, float] = {}

    def observe(self, pids, starting: bool = False) -> None:
        for pid in pids:
            value = cpu_seconds(pid)
            if value is None:
                continue
            if pid not in self.first:
                self.first[pid] = value if starting else 0.0
            self.last[pid] = value

    def total(self) -> float:
        return sum(self.last[pid] - self.first[pid] for pid in self.last)
