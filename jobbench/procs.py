"""Every process the benchmark starts stays in its process tree and is
waited for before the benchmark moves on or exits.

Ray's worker processes are children of the raylet; when ``ray.shutdown``
stops the raylet they are orphaned and may outlive the benchmark.  With
this process a child subreaper (Linux ``PR_SET_CHILD_SUBREAPER``) such
orphans become its children instead of init's, so ``wait_children`` can
wait for them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make orphaned descendants children of this process (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    kids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return kids
    for d in entries:
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # ended meanwhile
        # fields after "(comm)": state, ppid, ...
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            kids.append(int(d))
    return kids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_children(grace_s: float = 10.0) -> None:
    """Wait until every child has ended and been reaped.  Children still
    running after ``grace_s`` get SIGTERM, after twice that SIGKILL."""
    start = time.monotonic()
    while True:
        _reap()
        kids = _children()
        if not kids:
            return
        waited = time.monotonic() - start
        if waited >= grace_s:
            sig = signal.SIGKILL if waited >= 2 * grace_s else signal.SIGTERM
            for pid in kids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
