"""The cross-request implication cache: in-process LRU + on-disk store.

Implication answers are pure functions of the constraint sets (the
Calvanese-De Giacomo-Lenzerini line of containment-under-constraints
work leans on exactly this), so a *definite* TRUE/FALSE verdict keyed
by the alpha-invariant canonical form of the instance
(:mod:`repro.reasoning.canonical`) can be replayed forever: repeated
and alpha-equivalent queries become O(lookup) instead of O(solve).

Two tiers, modeled on EdgeDB's compiled-query cache:

* a process-local LRU bounded by entry count and byte size;
* an optional on-disk store (one JSON file per key under
  ``<cache-dir>/v<schema>-<code>/<kk>/<key>.json``), written
  atomically (``mkstemp`` + ``os.replace``) so concurrent writers are
  last-writer-wins and readers never see a torn file.  The store is
  versioned by an entry schema version and a solver code version; a
  bump orphans old entries (they live in a differently named
  directory and simply stop matching).

Corruption is survivable by construction: an entry that fails to
parse or validate is quarantined (renamed ``*.corrupt``) with a
warning and treated as a miss — a damaged cache can cost a recompute,
never a crash and never a wrong answer.

UNKNOWN and fault-degraded results are never stored; cached
certificates (counter-model graphs, stored in canonical alphabet) are
renamed back into the caller's alphabet on replay, so a hit's
evidence re-verifies under the Definition 2.1 checker like any fresh
refutation.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Entry format version (bump on incompatible entry layout changes).
SCHEMA_VERSION = 1

#: Solver semantics version (bump when any engine's verdicts could
#: change, orphaning every stored answer).
CODE_VERSION = "1"

#: Environment override for the on-disk store location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default on-disk store location (the CLI's default).
DEFAULT_CACHE_DIR = "~/.cache/repro"

_ANSWERS = ("true", "false")
_CERTIFICATES = ("proof", "countermodel", "none")

_ENTRY_FIELDS = {
    "schema_version",
    "code_version",
    "answer",
    "method",
    "decidable",
    "complexity",
    "certificate",
    "countermodel",
    "notes",
    "created",
}


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """The on-disk store location: explicit > $REPRO_CACHE_DIR > default."""
    if explicit:
        return Path(explicit).expanduser()
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_CACHE_DIR).expanduser()


def version_tag() -> str:
    return f"v{SCHEMA_VERSION}-{CODE_VERSION}"


class CacheInfo:
    """How the cache participated in one solve, recorded on
    ``result.cache``.

    ``status`` is a closed vocabulary: ``hit`` (verdict replayed),
    ``store`` (solved fresh, result now cached), ``miss`` (solved
    fresh, result not cacheable — UNKNOWN or fault-degraded),
    ``bypass`` (lookup deliberately skipped: fault injection active,
    or the caller needs a fresh certificate).  ``tier`` names where a
    hit came from (``memory``/``disk``) or where a store landed.
    """

    __slots__ = ("status", "key", "tier", "detail")

    def __init__(
        self, status: str, key: str = "", tier: str = "", detail: str = ""
    ) -> None:
        self.status = status
        self.key = key
        self.tier = tier
        self.detail = detail

    def describe(self) -> str:
        parts = [self.status]
        if self.tier:
            parts.append(f"({self.tier})")
        if self.key:
            parts.append(f"key={self.key[:12]}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "key": self.key,
            "tier": self.tier,
            "detail": self.detail,
        }


def make_entry(
    answer: str,
    method: str,
    decidable: bool,
    complexity: str | None,
    certificate: str,
    countermodel: dict | None,
    notes: tuple[str, ...] = (),
) -> dict:
    """A validated entry dict (the only shape the tiers accept)."""
    if answer not in _ANSWERS:
        raise ValueError(f"only definite answers are cacheable, got {answer!r}")
    if certificate not in _CERTIFICATES:
        raise ValueError(f"unknown certificate kind {certificate!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "answer": answer,
        "method": method,
        "decidable": bool(decidable),
        "complexity": complexity,
        "certificate": certificate,
        "countermodel": countermodel,
        "notes": list(notes),
        "created": time.time(),
    }


def _validate_entry(entry: object) -> dict:
    """Raise ``ValueError`` unless ``entry`` is a well-formed stored
    verdict stamped with the current versions."""
    if not isinstance(entry, dict):
        raise ValueError("entry is not an object")
    missing = _ENTRY_FIELDS - set(entry)
    if missing:
        raise ValueError(f"entry missing fields {sorted(missing)}")
    if entry["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"entry schema version {entry['schema_version']!r} != "
            f"{SCHEMA_VERSION}"
        )
    if entry["code_version"] != CODE_VERSION:
        raise ValueError(
            f"entry code version {entry['code_version']!r} != {CODE_VERSION!r}"
        )
    if entry["answer"] not in _ANSWERS:
        raise ValueError(f"entry answer {entry['answer']!r} is not definite")
    if entry["certificate"] not in _CERTIFICATES:
        raise ValueError(f"unknown certificate {entry['certificate']!r}")
    if not isinstance(entry["method"], str) or not isinstance(
        entry["decidable"], bool
    ):
        raise ValueError("entry method/decidable have wrong types")
    if entry["countermodel"] is not None and not isinstance(
        entry["countermodel"], dict
    ):
        raise ValueError("entry countermodel is not an object")
    if not isinstance(entry["notes"], list):
        raise ValueError("entry notes is not a list")
    return entry


class _MemoryTier:
    """Thread-safe LRU bounded by entries and (approximate) bytes."""

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[dict, int]] = OrderedDict()
        self._bytes = 0
        self.evictions = 0

    def get(self, key: str) -> dict | None:
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                return None
            self._entries.move_to_end(key)
            return found[0]

    def put(self, key: str, entry: dict) -> None:
        size = len(json.dumps(entry))
        with self._lock:
            if key in self._entries:
                self._bytes -= self._entries.pop(key)[1]
            self._entries[key] = (entry, size)
            self._bytes += size
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
            }


class _DiskTier:
    """One JSON file per key, atomic writes, quarantine on corruption."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).expanduser()
        self.directory = self.root / version_tag()

    def _path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            warnings.warn(
                f"implication cache: unreadable entry {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        try:
            entry = _validate_entry(json.loads(raw))
        except (json.JSONDecodeError, ValueError) as exc:
            self._quarantine(path, exc)
            return None
        if entry.get("key", key) != key:
            self._quarantine(path, ValueError("entry/key mismatch"))
            return None
        return entry

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt/truncated entry aside; never let it crash a
        solve or be re-read as a miss forever."""
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
            note = f"quarantined to {target.name}"
        except OSError:
            try:
                os.unlink(path)
                note = "removed"
            except OSError:
                note = "left in place"
        warnings.warn(
            f"implication cache: corrupt entry {path} ({exc}); {note}",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, key: str, entry: dict) -> bool:
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".repro-cache-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump({**entry, "key": key}, handle)
                # Atomic publish: concurrent writers race benignly,
                # last writer wins, readers see old or new, never torn.
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            warnings.warn(
                f"implication cache: cannot persist entry under "
                f"{self.directory}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    def iter_entry_files(self):
        if not self.directory.is_dir():
            return
        for bucket in sorted(self.directory.iterdir()):
            if not bucket.is_dir():
                continue
            yield from sorted(bucket.glob("*.json"))

    def stats(self) -> dict:
        entries = 0
        total = 0
        for path in self.iter_entry_files():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                continue
        return {
            "directory": str(self.root),
            "version": version_tag(),
            "entries": entries,
            "bytes": total,
        }

    def clear(self) -> int:
        """Remove every stored entry (all versions) under the root.

        Returns the number of entry files removed.  Only files this
        store plausibly wrote are touched (``v*`` version directories
        and the counters file), so a mistaken ``--cache-dir`` cannot
        vaporize unrelated data.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for versioned in sorted(self.root.glob("v*-*")):
            if not versioned.is_dir():
                continue
            for bucket in sorted(versioned.iterdir()):
                if bucket.is_dir():
                    for path in sorted(bucket.iterdir()):
                        try:
                            if path.suffix in (".json", ".corrupt", ".tmp"):
                                path.unlink()
                                if path.suffix == ".json":
                                    removed += 1
                        except OSError:
                            continue
                    try:
                        bucket.rmdir()
                    except OSError:
                        continue
                elif bucket.name in ("counters.json", "counters.lock"):
                    try:
                        bucket.unlink()
                    except OSError:
                        pass
            try:
                versioned.rmdir()
            except OSError:
                continue
        return removed

    # -- persistent counters (best-effort, for `repro cache stats`) ----

    @property
    def _counters_path(self) -> Path:
        return self.directory / "counters.json"

    @property
    def _counters_lock_path(self) -> Path:
        return self.directory / "counters.lock"

    @contextlib.contextmanager
    def _counters_locked(self):
        """Serialize counter read-modify-write across processes.

        An ``flock`` on a sidecar lock file (never the data file —
        replacing a locked file would silently break the lock)
        makes concurrent folds exact instead of last-writer-wins.
        Platforms without ``fcntl`` degrade to the old best-effort
        behavior: increments may be dropped under a race, never
        corrupted (writes stay atomic either way).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self._counters_lock_path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def read_counters(self) -> dict:
        """The lifetime counters; a torn/corrupt file resets to zero.

        A damaged counters file (torn concurrent write from a
        pre-lock version, disk-full truncation, manual editing) is
        an observability loss, not an error condition: warn and
        start the tallies over rather than crash a solve or the
        ``cache stats`` command.
        """
        zeros = {"hits": 0, "misses": 0, "stores": 0}
        try:
            raw = self._counters_path.read_text()
        except FileNotFoundError:
            return zeros
        except OSError as exc:
            warnings.warn(
                f"implication cache: unreadable counters file "
                f"{self._counters_path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return zeros
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("counters file is not an object")
            return {
                "hits": int(data.get("hits", 0)),
                "misses": int(data.get("misses", 0)),
                "stores": int(data.get("stores", 0)),
            }
        except (ValueError, TypeError) as exc:
            warnings.warn(
                f"implication cache: torn/corrupt counters file "
                f"{self._counters_path} ({exc}); resetting to zero",
                RuntimeWarning,
                stacklevel=2,
            )
            return zeros

    def add_counters(self, hits: int, misses: int, stores: int) -> None:
        """Fold per-process tallies into the on-disk counters.

        Safe under concurrent connections: the read-modify-write runs
        under :meth:`_counters_locked`, and the write itself is the
        same ``mkstemp`` + atomic-rename pattern as entry writes, so
        readers never observe a torn file.
        """
        if not (hits or misses or stores):
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._counters_locked():
                current = self.read_counters()
                current["hits"] += hits
                current["misses"] += misses
                current["stores"] += stores
                fd, tmp = tempfile.mkstemp(
                    dir=self.directory,
                    prefix=".repro-counters-",
                    suffix=".tmp",
                )
                with os.fdopen(fd, "w") as handle:
                    json.dump(current, handle)
                os.replace(tmp, self._counters_path)
        except OSError:
            pass


class ImplicationCache:
    """The two-tier store :func:`repro.reasoning.solve` consults.

    ``cache_dir=None`` keeps the cache purely in-process; a path adds
    the persistent tier (disk hits are promoted into memory).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        max_entries: int = 4096,
        max_bytes: int = 32 << 20,
    ) -> None:
        if max_entries < 1 or max_bytes < 1:
            raise ValueError("cache bounds must be positive")
        self.memory = _MemoryTier(max_entries, max_bytes)
        self.disk = _DiskTier(Path(cache_dir)) if cache_dir else None
        self._lock = threading.Lock()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.stores = 0
        self.bypasses = 0

    # -- core protocol -------------------------------------------------

    def lookup(self, key: str) -> tuple[dict, str] | None:
        """The stored entry and the tier it came from, or None."""
        entry = self.memory.get(key)
        if entry is not None:
            with self._lock:
                self.hits_memory += 1
            return entry, "memory"
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                self.memory.put(key, entry)
                with self._lock:
                    self.hits_disk += 1
                return entry, "disk"
        with self._lock:
            self.misses += 1
        return None

    def store(self, key: str, entry: dict) -> str:
        """Persist a validated entry; returns the deepest tier written."""
        _validate_entry(entry)
        self.memory.put(key, entry)
        with self._lock:
            self.stores += 1
        if self.disk is not None and self.disk.put(key, entry):
            return "disk"
        return "memory"

    def note_bypass(self) -> None:
        with self._lock:
            self.bypasses += 1

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Drop both tiers; returns disk entries removed."""
        self.memory.clear()
        if self.disk is not None:
            return self.disk.clear()
        return 0

    def flush_counters(self) -> None:
        """Fold this process's hit/miss/store tallies into the on-disk
        counters file (no-op for memory-only caches)."""
        if self.disk is None:
            return
        with self._lock:
            hits = self.hits_memory + self.hits_disk
            misses, stores = self.misses, self.stores
        self.disk.add_counters(hits, misses, stores)

    def stats(self) -> dict:
        with self._lock:
            counters = {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "stores": self.stores,
                "bypasses": self.bypasses,
            }
        out = {"counters": counters, "memory": self.memory.stats()}
        if self.disk is not None:
            disk = self.disk.stats()
            disk["lifetime_counters"] = self.disk.read_counters()
            out["disk"] = disk
        return out
