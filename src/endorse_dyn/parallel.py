"""Thread-pool helper; ENDORSE_DYN_THREADS caps worker count, which is by
default the number of CPUs this process may run on."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def thread_count() -> int:
    raw = os.environ.get("ENDORSE_DYN_THREADS")
    if raw is None:
        try:  # the CPUs of this process's affinity set (taskset, a cpuset)
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call (macOS, Windows)
            return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"ENDORSE_DYN_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError("ENDORSE_DYN_THREADS must be >= 1")
    return n


def parallel_map(fn, items) -> list:
    """Map preserving input order, so merges are deterministic by key."""
    items = list(items)
    workers = min(thread_count(), len(items) or 1)
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
