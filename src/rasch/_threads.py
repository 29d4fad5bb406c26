"""The two halves of a batch of splits, on two threads.

The splits of one fit are independent: each is drawn from its own sub-stream
and fitted on its own win matrix, so its result does not depend on the other
splits or on the thread that computes it.  `in_halves` lets a large batch
use two CPUs; the results are the same bits as on one.
"""

from __future__ import annotations

import os
import threading


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def in_halves(work, n: int, threaded: bool) -> list:
    """``[work(0, n)]``, or ``[work(0, h), work(h, n)]`` with ``h = n // 2``
    when ``threaded``, ``n >= 2`` and at least two CPUs are usable.

    The second half runs on a helper thread while the caller runs the first.
    The helper is joined before this returns, also when the first half
    raises.  An exception of the helper is re-raised here unless the first
    half raised too: the first half's exception is the one that running the
    halves in order would raise.
    """
    if not (threaded and n >= 2 and _usable_cpus() >= 2):
        return [work(0, n)]
    half = n // 2
    second: dict = {}

    def run_second():
        try:
            second["result"] = work(half, n)
        except BaseException as exc:  # re-raised on the caller's thread
            second["error"] = exc

    helper = threading.Thread(target=run_second, name="rasch-split-half", daemon=True)
    helper.start()
    try:
        first = work(0, half)
    finally:
        helper.join()
    if "error" in second:
        raise second["error"]
    return [first, second["result"]]
