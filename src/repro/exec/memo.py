"""Process-local memoization: one named cache per memoized function.

The expensive pieces re-priced or rebuilt during a sweep — transformer
block costs, the §3.6 ECMP conflict factor, compiled pipeline schedules,
CLOS fabrics, fabric collective prices, Monte Carlo campaign fixtures —
are pure functions of their arguments, and the same argument tuples
recur across sweep points.  Every such cache is a :class:`MemoCache` in
this module's registry (:func:`memoized` registers one per decorated
function), so :func:`clear_caches` empties all of them and the sweep
executor counts the reuse of each in a
:class:`~repro.exec.stats.SweepStats` report.

Caches are process-local by design.  Worker processes of the sweep
executor each build (or, under ``fork``, inherit) their own cache; the
executor merges per-task counter deltas back into one report.  Because
the memoized functions are pure, caching never changes results — serial
and parallel sweeps stay bit-for-bit identical.

This module must stay dependency-free within ``repro`` (the cost-model
modules import it at definition time).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


class MemoCache:
    """One named memoization cache with hit/miss/eviction counters.

    ``maxsize=None`` (the default) keeps the cache unbounded.  With a
    positive ``maxsize`` the cache evicts its least-recently-used entry
    once full, so a cache whose keys keep changing (fabric shapes,
    pipeline schedules) does not grow without limit; evictions are
    counted and surface in :class:`~repro.exec.stats.SweepStats`.
    """

    def __init__(self, name: str, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.store: Dict[Any, Any] = {}  # insertion order == recency order
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        """The cached value (refreshing recency); KeyError on a miss."""
        if self.maxsize is None:
            # Unbounded caches never evict, so recency is meaningless —
            # skip the pop/re-insert churn on the hot lookup path.
            return self.store[key]
        value = self.store.pop(key)  # KeyError propagates on miss
        self.store[key] = value  # re-insert: most recently used
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert a value, evicting the LRU entry if over ``maxsize``."""
        self.store.pop(key, None)
        self.store[key] = value
        if self.maxsize is not None and len(self.store) > self.maxsize:
            oldest = next(iter(self.store))
            del self.store[oldest]
            self.evictions += 1

    def lookup(self, key: Any, compute: Callable[[], Any]) -> Any:
        """The value cached under ``key``; on a miss, ``compute()`` it and
        keep it.  An unhashable key bypasses the cache (counted as a miss).
        """
        try:
            hit = key in self.store
        except TypeError:
            self.misses += 1
            return compute()
        if hit:
            self.hits += 1
            return self.get(key)
        self.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop entries; counters are kept (they describe past calls)."""
        self.store.clear()


# Registry of every process-local cache, keyed by name.
_REGISTRY: Dict[str, MemoCache] = {}


def get_cache(name: str, maxsize: Optional[int] = None) -> MemoCache:
    """The cache registered under ``name``, created with ``maxsize`` on
    first use (a later ``maxsize`` is ignored)."""
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = _REGISTRY[name] = MemoCache(name, maxsize=maxsize)
    return cache


def registered_caches() -> Dict[str, MemoCache]:
    """A live view of all registered caches, by name."""
    return dict(_REGISTRY)


def memoized(name: str, maxsize: Optional[int] = None) -> Callable[[F], F]:
    """Memoize a pure function under a named, inspectable cache.

    The key is the full positional + keyword argument tuple; unhashable
    arguments fall through to a plain call (counted as a miss) so the
    decorator never changes semantics.  The wrapped function gains a
    ``cache`` attribute (its :class:`MemoCache`) and a
    ``__wrapped__`` attribute (the raw function).  ``maxsize`` bounds
    the cache with LRU eviction (None = unbounded, the default).
    """

    def decorate(fn: F) -> F:
        cache = get_cache(name, maxsize=maxsize)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = args if not kwargs else (args, tuple(sorted(kwargs.items())))
            return cache.lookup(key, lambda: fn(*args, **kwargs))

        wrapper.cache = cache  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


# -- counter snapshots (used by the sweep executor) ---------------------------

Snapshot = Dict[str, Tuple[int, int, int]]  # name -> (hits, misses, evictions)


def cache_snapshot() -> Snapshot:
    """Current (hits, misses, evictions) of every registered cache."""
    return {name: (c.hits, c.misses, c.evictions) for name, c in _REGISTRY.items()}


def cache_delta(before: Snapshot, after: Snapshot) -> Snapshot:
    """Counter growth between two snapshots (missing names count from 0)."""
    return {
        name: tuple(a - b for a, b in zip(counters, before.get(name, (0, 0, 0))))
        for name, counters in after.items()
    }


def merge_deltas(deltas: Iterable[Snapshot]) -> Snapshot:
    """Sum counter deltas from independent tasks/processes."""
    total: Snapshot = {}
    for delta in deltas:
        for name, counters in delta.items():
            total[name] = tuple(a + b for a, b in zip(total.get(name, (0, 0, 0)), counters))
    return total


def clear_caches() -> None:
    """Drop every registered cache's entries (counters survive)."""
    for cache in _REGISTRY.values():
        cache.clear()


# -- persistent cross-run cache ----------------------------------------------

def cost_model_fingerprint() -> str:
    """A hash that changes whenever any module of the ``repro`` package does.

    Persistent caches embed this fingerprint; a mismatch on load makes
    the cache start empty, so a result computed by older code is never
    served.  Every ``*.py`` file under the package directory is hashed,
    in order of relative path, so no module a cached result depends on
    can be left out; the cost is that any source edit cold-starts the
    on-disk caches.  Entries that are not regular files (an editor's
    dangling ``.#cli.py`` lock symlink) are skipped.
    """
    import hashlib
    from pathlib import Path

    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    sources = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
        if path.is_file()
    )
    for relative, path in sources:
        digest.update(relative.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class PersistentMemo:
    """A disk-backed memo shared across ``tune``/``sweep`` invocations.

    One pickle file holds ``{fingerprint, entries}``; entries whose
    fingerprint no longer matches the current cost models are discarded
    on load, so the file is always safe to keep *and* safe to delete.  A
    file that cannot be read or unpickled, or that holds anything but a
    dict with a str ``fingerprint`` and a dict ``entries``, loads as an
    empty store.  Keys are caller-built strings (see
    :func:`repro.parallel.search.plan_cache_key`); values are arbitrary
    picklable results.  The store is unbounded.

    Writes are buffered: ``put`` marks the store dirty and ``flush``
    (also called by ``__exit__``) atomically replaces the file.
    """

    def __init__(self, path: str, fingerprint: Optional[str] = None) -> None:
        self.path = path
        self.fingerprint = fingerprint or cost_model_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stale_dropped = 0
        self._dirty = False
        self.entries: Dict[str, Any] = self._load()

    def _load(self) -> Dict[str, Any]:
        import os
        import pickle

        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            # Corrupt bytes make pickle raise almost any exception type
            # (ValueError, TypeError, KeyError, MemoryError, ...): start fresh.
            return {}
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("fingerprint"), str)
            and isinstance(payload.get("entries"), dict)
        ):
            return {}  # not a store this class wrote: start fresh
        if payload["fingerprint"] != self.fingerprint:
            self.stale_dropped = len(payload["entries"])
            return {}
        return dict(payload["entries"])

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one priced point, counting the hit or miss."""
        if key in self.entries:
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return default

    def put(self, key: str, value: Any) -> None:
        self.entries[key] = value
        self._dirty = True

    def flush(self) -> None:
        """Atomically persist the store (no-op when nothing changed)."""
        import os
        import pickle

        if not self._dirty:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump({"fingerprint": self.fingerprint, "entries": self.entries}, fh)
        os.replace(tmp, self.path)
        self._dirty = False

    def __enter__(self) -> "PersistentMemo":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.flush()
