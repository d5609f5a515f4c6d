"""``load_kernels`` loads once, also when its first callers race.

Thread shards, and any caller that installs or plans from its own
threads, can make the first call from several threads at once; the build,
load and probe must run in one of them, and every caller must get the same
object.
"""

import sys
import threading
import time

from repro.ml import _native


def test_concurrent_first_callers_load_once(monkeypatch):
    loads = []
    loaded = object()

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.05)  # wide enough for every racer to reach the check
        return loaded

    monkeypatch.setattr(_native, "_load_kernels_impl", slow_load)
    monkeypatch.setattr(_native, "_KERNELS", "unset")
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def first_call(slot):
        barrier.wait()
        results[slot] = _native.load_kernels()

    threads = [threading.Thread(target=first_call, args=(slot,)) for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1
    assert all(result is loaded for result in results)
    assert _native.load_kernels() is loaded
    assert len(loads) == 1
