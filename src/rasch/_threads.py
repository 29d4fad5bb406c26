"""The two halves of a batch of splits, or the chunks of users of a sum, on two threads.

The splits of one fit are independent: each is drawn from its own sub-stream
and fitted on its own win matrix, so its result does not depend on the other
splits or on the thread that computes it.  So is each chunk of users of the
indicator products.  `in_halves` lets a large batch use two CPUs, and
`in_order` a sum that must add its terms in order; the results are the same
bits as on one.
"""

from __future__ import annotations

import os
import queue
import threading


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _two_threads(threaded: bool, n: int) -> bool:
    return threaded and n >= 2 and _usable_cpus() >= 2


def in_halves(work, n: int, threaded: bool) -> list:
    """``[work(0, n)]``, or ``[work(0, h), work(h, n)]`` with ``h = n // 2``
    when ``threaded``, ``n >= 2`` and at least two CPUs are usable.

    The second half runs on a helper thread while the caller runs the first.
    The helper is joined before this returns, also when the first half
    raises.  An exception of the helper is re-raised here unless the first
    half raised too: the first half's exception is the one that running the
    halves in order would raise.
    """
    if not _two_threads(threaded, n):
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


def in_order(work, n: int, threaded: bool, take) -> None:
    """``take(work(k))`` for ``k = 0, ..., n - 1``, in order, on the calling thread.

    When ``threaded``, ``n >= 2`` and at least two CPUs are usable, a helper
    thread started by `in_halves` computes the odd ``k`` while the caller
    computes the even ones, and hands each result over through a one-slot
    queue: it holds at most one result there and one in hand, however large
    ``n`` is.  ``take`` sees the results in the order of ``k`` either way.  An
    exception of ``work`` or ``take`` is raised here at the ``k`` where the
    one-thread order raises it, and the helper stops before its next ``k``.
    """
    if not _two_threads(threaded, n):
        for k in range(n):
            take(work(k))
        return
    handoff: queue.Queue = queue.Queue(maxsize=1)
    stopped = threading.Event()

    def lane(lo: int, hi: int) -> None:
        if lo == 1:  # the helper: the odd k
            for k in range(1, n, 2):
                if stopped.is_set():
                    return
                try:
                    item = (work(k), None)
                except BaseException as exc:  # raised by the caller, in order
                    handoff.put((None, exc))
                    return
                handoff.put(item)
        else:  # the caller: each even k, then the helper's next
            try:
                for k in range(0, n, 2):
                    take(work(k))
                    if k + 1 < n:
                        result, error = handoff.get()
                        if error is not None:
                            raise error
                        take(result)
            finally:
                # after a raise, free the slot: the helper's one put that may
                # follow goes through, and it then sees `stopped` and returns
                stopped.set()
                try:
                    handoff.get_nowait()
                except queue.Empty:
                    pass

    in_halves(lane, 2, True)
