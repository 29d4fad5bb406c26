"""The two halves of a batch of splits, or of the chunks of users of a sum, on two threads.

The splits of one fit are independent: each is drawn from its own sub-stream
and fitted on its own win matrix, so its result does not depend on the other
splits or on the thread that computes it.  So is each half of the chunks of
users of the indicator products, which its caller sums from zeros before it
adds the two totals.  `in_halves` splits its work into halves by its input
alone and lets them use two CPUs when two are usable, so the results are the
same bits on one CPU or two.
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
    when ``threaded`` and ``n >= 2``.

    The halves depend on ``threaded`` and ``n`` only; the CPU count decides
    where the second half runs.  With at least two usable CPUs it runs on a
    helper thread while the caller runs the first, and otherwise on the
    caller after the first.  The helper is joined before this returns, also
    when the first half raises.  An exception of the helper is re-raised
    here unless the first half raised too: the first half's exception is the
    one that running the halves in order would raise.
    """
    if not (threaded and n >= 2):
        return [work(0, n)]
    half = n // 2
    if _usable_cpus() < 2:
        return [work(0, half), work(half, n)]
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
