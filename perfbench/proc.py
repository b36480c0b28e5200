"""Process accounting from /proc (psutil is not installed).

Every Ray process of the benchmark's session descends from the
benchmark's own process, so the session is the process tree under
``os.getpid()``.  Ray names its worker and actor processes ``ray::...``.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            stat = (d / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces and parentheses: split after
        # the last ')'
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z":
            out[int(d.name)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) processes below ``root`` (default: this one)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return ""
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size of one process, in MB (0 if it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def ray_workers(prefix: str = "ray::") -> list[int]:
    """The session's Ray worker and actor processes (idle ones too)."""
    return [p for p in descendants() if cmdline(p).startswith(prefix)]


def session_peak_rss_mb() -> float:
    """Sum of VmHWM over this process and the session's Ray workers."""
    return vmhwm_mb(os.getpid()) + sum(vmhwm_mb(p) for p in ray_workers())


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_gone(pids: list[int], timeout: float = 15.0) -> list[int]:
    """Wait for ``pids`` to exit; SIGKILL what is left after ``timeout``
    and wait again.  Returns the pids that are still alive."""
    deadline = time.monotonic() + timeout
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    return left
