"""``parallel_map``: independent work items over plain threads.

The items are split cyclically over ``workers`` threads (the classic MPI
static decomposition).  Threads suffice: the work is NumPy-heavy, so the
GIL is released inside the kernels, and the threads share arrays
zero-copy.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 4,
) -> list:
    """Apply ``fn`` to every item using ``workers`` threads.

    Results come back in input order.  With one worker (or one item) this
    degenerates to a plain loop.  When an item raises, the other threads
    start no further items, and the exception of the first failed item (in
    input order) is re-raised.
    """
    items = list(items)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, max(len(items), 1))
    if workers == 1:
        return [fn(item) for item in items]

    results: list[Any] = [None] * len(items)
    errors: dict[int, BaseException] = {}
    failed = threading.Event()

    def work(rank: int) -> None:
        for i in range(rank, len(items), workers):   # cyclic decomposition
            if failed.is_set():
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[i] = exc
                failed.set()
                return

    threads = [threading.Thread(target=work, args=(r,)) for r in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results
