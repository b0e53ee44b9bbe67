"""On-disk content-addressed cache for experiment results.

Each cached entry is one JSON file named ``<key>.json`` where *key* is
the SHA-256 of the canonical key material:

* ``module`` — the experiment module name (``"table6_main"``),
* ``module_sha256`` — hash of that module's source file,
* ``package_digest`` — hash of **every** ``.py`` file in the ``repro``
  package (so a change anywhere in the simulator invalidates results,
  not only edits to the experiment module itself),
* ``version`` — the ``repro`` distribution version,
* ``seed`` — the *derived* per-experiment seed,
* ``fast`` — fast/full mode.

Writes are atomic (temp file + :func:`os.replace`), so concurrent pool
workers and concurrent engine invocations can share one cache directory
without torn entries.  A corrupt or unreadable entry is treated as a
miss and overwritten.

The cache can be **size-bounded**: construct with ``max_bytes`` and a
put that takes the directory past the cap deletes least-recently-used
entries down to :data:`LOW_WATER_FRACTION` of it; ``python -m
repro.runtime.cache --prune`` deletes down to a given cap offline.
Recency is the entry file's mtime — refreshed on every
:meth:`ResultCache.get` hit — so a long-lived service keeps its hot
results and sheds cold sweeps.  A capped cache scans the directory once
when it opens and then keeps a running byte total, so a put under the
cap lists nothing; the scan at the cap counts what other processes
wrote to the same directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.testkit.chaos import inject

#: Bump when the cached payload layout changes; invalidates old entries.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default size cap applied by ``python -m repro.runtime.cache --prune``.
DEFAULT_PRUNE_MAX_BYTES = 1 << 30

#: A put that takes a capped cache past its cap prunes it down to this
#: fraction of the cap, leaving room for puts before the next scan.
LOW_WATER_FRACTION = 0.9


def _count_corrupt_entry() -> None:
    """Record one corrupt/truncated cache entry in the obs registry."""
    try:
        from repro.obs.registry import get_registry

        get_registry().counter(
            "cache_corrupt_entries_total",
            "on-disk cache entries found corrupt and treated as misses",
        ).inc()
    except Exception:  # pragma: no cover - metrics must never fault
        pass


def default_cache_dir() -> Path:
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-suit``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-suit" / "experiments"


def experiment_cache_key(*, module: str, module_sha256: str,
                         package_digest: str, version: str,
                         seed: int, fast: bool) -> str:
    """Content-address (64 hex chars) of one experiment invocation.

    Equal inputs always map to equal keys; changing any single field
    changes the key (``tests/test_runtime_properties.py`` pins both
    properties).
    """
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "module": str(module),
        "module_sha256": str(module_sha256),
        "package_digest": str(package_digest),
        "version": str(version),
        "seed": int(seed),
        "fast": bool(fast),
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def domain_cache_key(*, domain: str, payload: dict,
                     package_digest: str) -> str:
    """Content-address (64 hex chars) of an arbitrary cacheable payload.

    Generalizes :func:`experiment_cache_key` for subsystems that cache
    something other than whole experiment invocations (the DSE caches
    per-genome simulation batches).  *domain* separates key spaces so
    two subsystems can never collide even on identical payloads;
    *payload* must be a plain-JSON dict (the canonical material is
    ``json.dumps(..., sort_keys=True)``, so dict insertion order and
    ``PYTHONHASHSEED`` never leak into the key); *package_digest* ties
    the entry to the simulator sources that produced it.
    """
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "domain": str(domain),
        "package_digest": str(package_digest),
        "payload": payload,
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def source_sha256(path: Path) -> str:
    """SHA-256 of one source file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_PACKAGE_DIGEST_CACHE: Dict[str, str] = {}


def package_digest(root: Optional[Path] = None, *, refresh: bool = False) -> str:
    """Digest of every ``.py`` file under *root* (default: the ``repro`` package).

    The digest covers relative paths and file contents in sorted order,
    so renames, additions, deletions and edits all change it.  Computed
    once per process per root (hashing ~200 files costs a few ms; pass
    ``refresh=True`` to force recomputation after editing sources
    in-process).
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root).resolve()
    cache_token = str(root)
    if not refresh and cache_token in _PACKAGE_DIGEST_CACHE:
        return _PACKAGE_DIGEST_CACHE[cache_token]
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        hasher.update(rel.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    _PACKAGE_DIGEST_CACHE[cache_token] = digest
    return digest


class ResultCache:
    """Content-addressed store of serialized experiment results.

    Args:
        root: cache directory (default :func:`default_cache_dir`).
        max_bytes: optional size cap; when set, the directory is
            scanned once here, and a :meth:`put` that takes the running
            byte total past the cap LRU-prunes down to
            :data:`LOW_WATER_FRACTION` of it.
    """

    def __init__(self, root: Optional[Path] = None,
                 max_bytes: Optional[int] = None) -> None:
        """See class docstring."""
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        # Bytes on disk as of the last scan, plus every put since.
        self._tracked_bytes = (self.total_bytes()
                               if max_bytes is not None else 0)

    def path_for(self, key: str) -> Path:
        """Path of the entry addressed by *key*."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Return the stored payload for *key*, or None on miss/corruption.

        A truncated, bit-flipped or otherwise undecodable entry is a
        *counted* miss (``cache_corrupt_entries_total``) and is deleted
        so the recompute's :meth:`put` starts from a clean slot; an
        absent entry or a schema-version mismatch is a plain miss.  A
        hit refreshes the entry's mtime, which is what LRU pruning
        orders by.
        """
        path = self.path_for(key)
        inject("cache.entry", path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return self._corrupt_miss(path)
        if not isinstance(entry, dict):
            return self._corrupt_miss(path)
        if entry.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None
        payload = entry.get("payload")
        if isinstance(payload, dict):
            try:
                os.utime(path, (time.time(), time.time()))
            except OSError:
                pass  # recency refresh is best-effort
            return payload
        return self._corrupt_miss(path)

    def _corrupt_miss(self, path: Path) -> None:
        """Count a corrupt entry, drop it from disk, and miss."""
        _count_corrupt_entry()
        try:
            path.unlink()
        except OSError:
            pass  # a concurrent prune (or chaos) beat us to it
        return None

    def put(self, key: str, payload: dict) -> Path:
        """Atomically store *payload* under *key*; returns the entry path.

        When the cache is size-bounded and this write takes the running
        total past the cap, pruning runs after the write, so the new
        entry itself is counted (and, being newest, survives).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        inject("cache.put", path=path)
        entry = {"cache_schema": CACHE_SCHEMA_VERSION, "key": key,
                 "payload": payload}
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._tracked_bytes += len(data)
            if self._tracked_bytes > self.max_bytes:
                self.prune(int(self.max_bytes * LOW_WATER_FRACTION))
        return path

    def entries(self) -> List[Tuple[Path, float, int]]:
        """Every entry as ``(path, mtime, size_bytes)``, oldest first."""
        if not self.root.is_dir():
            return []
        listed = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            listed.append((path, stat.st_mtime, stat.st_size))
        listed.sort(key=lambda item: item[1])
        return listed

    def total_bytes(self) -> int:
        """Sum of all entry sizes on disk."""
        return sum(size for _, _, size in self.entries())

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Delete least-recently-used entries until the cap fits.

        The scan also resets a capped cache's running byte total to what
        is left on disk, other processes' entries included.

        Args:
            max_bytes: cap to enforce; defaults to the instance's
                ``max_bytes``.  ``None`` on both sides is a no-op.

        Returns:
            Number of entries removed.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        inject("cache.prune", root=str(self.root))
        listed = self.entries()
        total = sum(size for _, _, size in listed)
        removed = 0
        for path, _, size in listed:  # oldest first
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already gone: someone else pruned it
            total -= size
            removed += 1
        self._tracked_bytes = total
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.runtime.cache`` — inspect, prune or clear a cache.

    With no action flag, prints the cache statistics.  ``--prune``
    LRU-prunes to ``--max-bytes`` (default 1 GiB); ``--clear`` removes
    everything.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.cache",
        description="inspect, LRU-prune or clear an on-disk result cache")
    parser.add_argument("--dir", default=None,
                        help="cache directory (default: the experiment "
                             "cache, honouring $REPRO_CACHE_DIR)")
    parser.add_argument("--prune", action="store_true",
                        help="delete least-recently-used entries until "
                             "the cache fits --max-bytes")
    parser.add_argument("--max-bytes", type=int,
                        default=DEFAULT_PRUNE_MAX_BYTES,
                        help="size cap enforced by --prune "
                             "(default: 1 GiB)")
    parser.add_argument("--clear", action="store_true",
                        help="delete every entry")
    args = parser.parse_args(argv)
    if args.max_bytes < 0:
        parser.error("--max-bytes must be >= 0")
    cache = ResultCache(Path(args.dir) if args.dir else None)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    if args.prune:
        before = cache.total_bytes()
        removed = cache.prune(args.max_bytes)
        after = cache.total_bytes()
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"({before - after:,} bytes) from {cache.root}; "
              f"{len(cache)} entries / {after:,} bytes remain "
              f"(cap {args.max_bytes:,})")
        return 0
    print(f"cache {cache.root}: {len(cache)} entries, "
          f"{cache.total_bytes():,} bytes")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
