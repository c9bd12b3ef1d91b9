"""Small shared helpers with (almost) no intra-package dependencies.

The only sibling imported -- lazily, inside functions -- is
:mod:`repro.faults`, whose injection hooks the cache layer consults so
chaos tests can corrupt reads and fail writes deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle

#: Environment variable capping each on-disk cache directory's size.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default per-directory cache budget (bytes): 1 GiB.
DEFAULT_CACHE_MAX_BYTES = 1 << 30

#: Environment variable overriding the cache root (tests, CI).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    Lives here, dependency-free, because every on-disk store keys off
    it: calibration tables (micro) and the trace/measured memo caches
    (``sim``, ``hw``), which must not import :mod:`repro.micro`.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def spec_fingerprint(spec) -> str:
    """Content hash of an architecture spec (cache invalidation key).

    Hashes a canonical form (sorted dict keys) so equal specs built
    with different ``functional_units`` insertion orders fingerprint
    identically.  Lives here, dependency-free, because both the
    calibration cache (micro) and the trace cache (sim) key on it.
    """
    canonical = json.dumps(
        dataclasses.asdict(spec), sort_keys=True, default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """sha256 over the relative path and bytes of every ``*.py`` file
    of the installed :mod:`repro` package.

    The version of every on-disk cache (traces, measured runs,
    calibration tables): any source change -- a
    revision of the timing simulator's reality included -- invalidates
    them all, so no hand-bumped constant can be forgotten.  Imports
    nothing; computed on first use and memoized per process.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = os.path.dirname(os.path.abspath(__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                h.update(f"{relative}\0{len(data)}\0".encode())
                h.update(data)
        _SOURCE_DIGEST = h.hexdigest()
    return _SOURCE_DIGEST


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> bool:
    """Atomically write ``data`` to ``path`` via a same-directory temp
    file and :func:`os.replace`, failing open on filesystem errors.

    Used by the on-disk caches (calibration tables, trace memos): an
    unwritable cache root must never discard freshly computed results,
    so errors clean up best-effort and report ``False`` instead of
    raising.  The temp file is fsynced before the replace so a crash
    mid-write can never publish a truncated entry under the final name;
    an fsync *error* still publishes (fail open -- the quarantine path
    in :class:`VersionedPickleCache` recovers if the bytes were in fact
    torn).
    """
    from repro import faults

    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        faults.on_cache_write(path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
            try:
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                pass
        os.replace(tmp, path)
        return True
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


class VersionedPickleCache:
    """Shared protocol of the on-disk pickle caches.

    One implementation of the rules every cache directory follows --
    dict payloads versioned by :func:`source_digest`, fail-open loads
    that refresh mtime for LRU ordering, atomic stores followed by
    :func:`evict_lru`, quarantine of corrupt entries -- so the trace
    and measured-run caches cannot drift apart.
    Subclasses pass their file suffix and type-check the loaded value.

    Degradation counters (read by the health telemetry): ``quarantines``
    counts corrupt entries renamed to ``*.corrupt``; ``write_errors``
    counts stores that failed open.
    """

    def __init__(
        self, directory: str | os.PathLike, suffix: str = ".pkl"
    ) -> None:
        self.directory = os.fspath(directory)
        self.suffix = suffix
        self.quarantines = 0
        self.write_errors = 0
        # Metric namespace, derived from the suffix: ".trace.pkl" ->
        # "cache.trace.*", ".run.pkl" -> "cache.run.*", and so on.
        parts = suffix.strip(".").split(".")
        self.kind = parts[0] if parts and parts[0] else "pickle"

    def _metric(self, name: str, value: float = 1) -> None:
        from repro.obs import metrics

        metrics.inc(f"cache.{self.kind}.{name}", value)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{self.suffix}")

    def _quarantine(self, path: str) -> None:
        """Rename a corrupt entry to ``*.corrupt`` -- once.

        A torn or bit-rotted entry must not be re-parsed (and re-fail)
        on every lookup: the rename makes the next lookup a plain miss,
        keeps the evidence on disk for inspection, and lets the LRU
        eviction reclaim it eventually.  Best-effort: losing a race with
        a concurrent quarantine (or an unwritable directory) is fine,
        the entry simply stays a miss.
        """
        try:
            os.replace(path, f"{path}.corrupt")
            self.quarantines += 1
            self._metric("quarantines")
        except OSError:
            pass

    def load_payload(self, key: str):
        """The stored value for ``key``, or ``None`` on any miss.

        Unpickling arbitrary bytes can raise nearly anything; a broken
        entry is quarantined and reported as a miss, never a crash.  A
        well-formed entry written under another :func:`source_digest` is
        a plain miss (it is valid data for other code, and the next
        store overwrites it).
        """
        from repro import faults

        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._metric("misses")
            return None
        data = faults.on_cache_read(data)
        try:
            payload = pickle.loads(data)
        except Exception:
            self._quarantine(path)
            self._metric("misses")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            self._metric("misses")
            return None
        if payload.get("version") != source_digest():
            self._metric("misses")
            return None
        value = payload.get("value")
        if value is None:
            self._metric("misses")
            return None
        try:
            os.utime(path)  # refresh mtime: LRU recency, not just age
        except OSError:
            pass
        self._metric("hits")
        return value

    def store_payload(self, key: str, value) -> None:
        """Atomically persist ``value``; fail open, then enforce the
        directory's size budget without evicting the fresh entry."""
        payload = {"version": source_digest(), "value": value}
        path = self._path(key)
        if atomic_write_bytes(
            path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ):
            self._metric("stores")
            evicted = evict_lru(self.directory, keep=(path,))
            if evicted:
                self._metric("evictions", evicted)
        else:
            self.write_errors += 1
            self._metric("write_errors")


def cache_max_bytes() -> int:
    """Per-directory size budget for the on-disk caches.

    Read from ``$REPRO_CACHE_MAX_BYTES``; values ``<= 0`` disable
    eviction entirely, unparsable values fall back to the default
    (fail open, like every other cache-layer error).
    """
    raw = os.environ.get(CACHE_MAX_BYTES_ENV)
    if raw is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_CACHE_MAX_BYTES


def evict_lru(
    directory: str | os.PathLike,
    max_bytes: int | None = None,
    keep: tuple = (),
) -> int:
    """Least-recently-used eviction for one cache directory.

    Deletes oldest-mtime files until the directory's regular files fit
    inside ``max_bytes`` (default: :func:`cache_max_bytes`); loads keep
    entries fresh by touching their mtime, so mtime order approximates
    recency of *use*, not just of creation.  Paths in ``keep`` (e.g. an
    entry written moments ago) are never evicted.  Returns the number of
    files removed; every filesystem error fails open.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    if max_bytes <= 0:
        return 0
    directory = os.fspath(directory)
    keep_paths = {os.path.abspath(os.fspath(p)) for p in keep}
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    entries = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            status = os.stat(path)
        except OSError:
            continue
        if not os.path.isfile(path):
            continue
        entries.append((status.st_mtime, status.st_size, path))
    total = sum(size for _, size, _ in entries)
    evicted = 0
    for _, size, path in sorted(entries):
        if total <= max_bytes:
            break
        if os.path.abspath(path) in keep_paths:
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        evicted += 1
    return evicted
