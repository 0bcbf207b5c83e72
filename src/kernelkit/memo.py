"""Thread-safe memoization in which every key is computed once."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator


class Memo:
    """Keyed memo shared by concurrent callers.

    :meth:`get` computes a missing key once, outside the lock, so different
    keys are computed concurrently; a caller asking for a key that another
    thread is computing waits for that value instead of computing it again.
    With ``maxsize`` only that many finished entries are kept, the least
    recently used dropped first.
    """

    def __init__(self, maxsize: int | None = None):
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._done: OrderedDict[Hashable, Any] = OrderedDict()
        self._pending: dict[Hashable, threading.Event] = {}

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        while True:
            with self._lock:
                if key in self._done:
                    self._done.move_to_end(key)
                    return self._done[key]
                waiting = self._pending.get(key)
                if waiting is None:
                    done = self._pending[key] = threading.Event()
                    break
            # The owner finished or failed; look again (and take over on failure).
            waiting.wait()
        try:
            value = compute()
            with self._lock:
                self._done[key] = value
                if self._maxsize is not None and len(self._done) > self._maxsize:
                    self._done.popitem(last=False)
        finally:
            with self._lock:
                del self._pending[key]
            done.set()
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._done))
