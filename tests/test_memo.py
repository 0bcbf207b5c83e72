import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from kernelkit.memo import Memo


def test_concurrent_callers_compute_each_key_once():
    memo = Memo()
    calls = []
    start = threading.Barrier(8)

    def compute(key):
        calls.append(key)
        time.sleep(0.002)
        return key * key

    def ask(i):
        start.wait(timeout=10)
        return [memo.get(k, lambda k=k: compute(k)) for k in range(i % 3, 12)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(ask, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(12))
    assert all(r == [k * k for k in range(i % 3, 12)] for i, r in enumerate(results))
    assert len(memo) == 12


def test_failed_compute_leaves_key_computable():
    memo = Memo()

    def fail():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        memo.get("k", fail)
    assert len(memo) == 0
    assert memo.get("k", lambda: 3) == 3


def test_bounded_memo_drops_least_recently_used():
    memo = Memo(maxsize=2)
    memo.get("a", lambda: 1)
    memo.get("b", lambda: 2)
    memo.get("a", lambda: None)
    memo.get("c", lambda: 3)
    assert list(memo) == ["a", "c"]
