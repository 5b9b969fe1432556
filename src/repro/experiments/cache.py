"""Content-addressed on-disk cache of simulation results.

Every simulation is deterministic, so a :class:`~repro.core.stats.SimStats`
result is fully determined by (benchmark, workload scale, machine-config
fingerprint, simulator code version).  :class:`ResultCache` stores results
as canonical JSON (via :meth:`SimStats.to_dict` -- deliberately not pickle,
so loading an entry from a shared or tampered cache directory can never
execute code) under a key hashing exactly that tuple, which makes re-runs
of whole figure sweeps near-instant and makes the cache self-invalidating:
any change to any configuration field (via :meth:`MachineConfig.fingerprint`)
or to any simulator source file (via :func:`code_version`) changes the key.

The cache is best-effort: store failures (unwritable directory, full disk)
are swallowed so a long sweep never loses its computed results to cache
I/O, and unreadable or corrupt entries are treated as misses.

Integrity: every entry carries a sha256 trailer (``...json\\n#sha256=HEX``)
written over the JSON body, so a torn write -- a crash between ``write``
and the atomic rename, or a short write on a full disk -- is detected at
load time.  Entries that fail verification (or decoding) are *quarantined*
to ``<root>/corrupt/`` rather than silently unlinked: the evidence
survives for inspection, the load is a plain miss, and the event is
counted in ``RunTelemetry.corrupt_quarantined``.  An entry without the
trailer is corrupt too: every key hashes :func:`code_version`, so no
entry this code wrote can lack one.

The cache directory defaults to ``~/.cache/repro`` (respecting
``XDG_CACHE_HOME``) and can be redirected with ``REPRO_CACHE_DIR``.  A
run that must not touch it passes ``use_cache=False`` (``--no-cache``),
which bypasses the in-process memo too.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.stats import SimStats
from repro.reliability import fs
from repro.reliability.retry import with_retries

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Top-level cache subdirectories that garbage collection must never touch:
#: the distributed work queue (see :mod:`repro.distrib.queue`) keeps its
#: *job* files -- which are not cache entries -- under ``queue/``.
GC_EXCLUDE_TOP = ("queue",)

#: Where entries that fail integrity verification are moved.  Inside the
#: root so ``cache gc`` age/size bounds clean it up eventually, but never
#: consulted by lookups.
CORRUPT_TOP = "corrupt"

#: Separates the JSON body from its sha256 integrity digest in an entry.
INTEGRITY_TRAILER = b"\n#sha256="

#: Grace period before an orphaned ``*.tmp`` (a writer killed between
#: ``mkstemp`` and ``os.replace``) is considered garbage.  Long enough that
#: no live writer can still own it.
TMP_GRACE_SECONDS = 3600.0

_code_version: Optional[str] = None


def cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def code_version() -> str:
    """Hash of every simulator source file, part of every cache key.

    Computed once per process over the ``repro`` package sources, so editing
    any simulator module automatically invalidates previously cached
    results.
    """
    global _code_version
    if _code_version is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def result_key(benchmark: str, scale: float, config: Any) -> str:
    """The content address of one simulation result."""
    material = "|".join((
        benchmark,
        repr(float(scale)),
        config.fingerprint(),
        code_version(),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def seal_entry(body: bytes) -> bytes:
    """Append the sha256 integrity trailer to an encoded entry body."""
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return body + INTEGRITY_TRAILER + digest


def unseal_entry(raw: bytes) -> Optional[bytes]:
    """The body of a sealed entry, or None when the trailer is missing or
    its digest does not match (a torn, tampered or foreign entry)."""
    idx = raw.rfind(INTEGRITY_TRAILER)
    if idx < 0:
        return None
    body = raw[:idx]
    digest = raw[idx + len(INTEGRITY_TRAILER):].strip().decode(
        "ascii", "replace")
    if hashlib.sha256(body).hexdigest() != digest:
        return None
    return body


class PayloadCache:
    """JSON-per-entry cache laid out as ``<root>/<kk>/<key>.json``.

    Stores arbitrary JSON-serializable dictionaries; the checkpoint-plan
    cache of :mod:`repro.experiments.sharding` uses it directly, and
    :class:`ResultCache` layers the :class:`SimStats` schema on top.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else cache_dir()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry to ``<root>/corrupt/`` and count the event.

        Falls back to unlinking when the move itself fails (read-only
        corrupt dir, cross-device root): a bad entry must never stay
        where lookups will keep tripping over it.
        """
        dest_dir = self.root / CORRUPT_TOP
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        from repro.experiments.runner import telemetry

        telemetry.corrupt_quarantined += 1
        print(f"repro: cache: quarantined corrupt entry {path.name} "
              f"({reason})", file=sys.stderr)

    def load_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached JSON payload, or None on miss/corruption.

        A transient read error (EIO, stale handle) is a plain miss -- the
        entry stays on disk.  A failed integrity trailer or a decode
        failure means the entry is corrupt (torn write, tampering, or an
        incompatible schema), so it is quarantined to ``corrupt/``.
        """
        path = self.path_for(key)
        try:
            raw = fs.read_bytes(path, "cache")
        except OSError:
            return None
        body = unseal_entry(raw)
        if body is None:
            self._quarantine(path, "failed integrity check")
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except Exception:
            self._quarantine(path, "undecodable entry")
            return None
        return payload

    def store_payload(self, key: str, payload: Dict[str, Any]) -> bool:
        """Atomically persist one JSON payload, best-effort.

        Encoding errors propagate (they are programming errors), but cache
        I/O failures -- unwritable directory, full disk -- are swallowed
        after bounded retries: losing a cache write must never lose the
        computed result.  Returns whether the entry was published, so
        callers whose *protocol* needs the publish (the distributed
        worker's publish-before-done step) can react.
        """
        data = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        blob = seal_entry(data)
        path = self.path_for(key)
        tmp = path.parent / f".{key[:16]}.{uuid.uuid4().hex}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        try:
            with_retries(
                lambda: fs.write_bytes(tmp, blob, "cache", durable=True),
                op=f"cache-write:{key[:8]}")
            with_retries(lambda: fs.replace(tmp, path, "cache"),
                         op=f"cache-publish:{key[:8]}")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        except BaseException:
            # KeyboardInterrupt / SystemExit / SimulatedCrash between the
            # write and the rename: don't leave an orphaned .tmp behind
            # (``cache gc`` sweeps any that SIGKILL still manages to
            # strand).
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    # ------------------------------------------------------------------
    def _gc_candidates(self):
        """Every GC-eligible file under the root (skips the queue tree)."""
        if not self.root.is_dir():
            return
        try:
            tops = sorted(self.root.iterdir())
        except OSError:
            return
        for top in tops:
            if top.name in GC_EXCLUDE_TOP:
                continue
            if top.is_file():
                yield top
            elif top.is_dir():
                for path in sorted(top.rglob("*")):
                    if path.is_file():
                        yield path

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None,
           tmp_grace_seconds: float = TMP_GRACE_SECONDS,
           now: Optional[float] = None) -> Dict[str, int]:
        """Age- and size-bounded garbage collection (``repro cache gc``).

        Three passes, all best-effort and safe under concurrent readers,
        writers and worker fleets (an entry deleted mid-read is a plain
        cache miss; the queue subtree is never touched):

        1. sweep orphaned ``*.tmp`` files older than ``tmp_grace_seconds``
           -- the debris of writers killed between ``mkstemp`` and the
           atomic rename;
        2. with ``max_age_seconds``, drop entries whose mtime is older;
        3. with ``max_bytes``, drop oldest-first until the cache fits.

        Returns counters: ``tmp_removed``, ``aged_out``, ``evicted_for_size``,
        ``bytes_freed``, ``entries_kept``, ``bytes_kept``.
        """
        now = time.time() if now is None else now
        stats = {"tmp_removed": 0, "aged_out": 0, "evicted_for_size": 0,
                 "bytes_freed": 0, "entries_kept": 0, "bytes_kept": 0}
        entries = []   # (mtime, size, path) of surviving .json entries
        for path in self._gc_candidates():
            try:
                info = path.stat()
            except OSError:
                continue
            if path.name.endswith(".tmp"):
                if now - info.st_mtime > tmp_grace_seconds:
                    if self._unlink(path):
                        stats["tmp_removed"] += 1
                        stats["bytes_freed"] += info.st_size
                continue
            if not path.name.endswith(".json"):
                continue
            if (max_age_seconds is not None
                    and now - info.st_mtime > max_age_seconds):
                if self._unlink(path):
                    stats["aged_out"] += 1
                    stats["bytes_freed"] += info.st_size
                continue
            entries.append((info.st_mtime, info.st_size, path))

        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            entries.sort()                       # oldest first
            survivors = []
            while entries and total > max_bytes:
                entry = entries.pop(0)
                _, size, path = entry
                if self._unlink(path):
                    stats["evicted_for_size"] += 1
                    stats["bytes_freed"] += size
                    total -= size
                else:
                    # Undeletable (EACCES/EBUSY): it still occupies space,
                    # so it stays in the totals and eviction moves on to
                    # the next-oldest entry.
                    survivors.append(entry)
            entries = survivors + entries
        stats["entries_kept"] = len(entries)
        stats["bytes_kept"] = sum(size for _, size, _ in entries)
        self._prune_empty_dirs()
        return stats

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def _prune_empty_dirs(self) -> None:
        """Drop now-empty ``<kk>/`` shard directories after a sweep."""
        if not self.root.is_dir():
            return
        for sub in self.root.iterdir():
            if sub.name in GC_EXCLUDE_TOP or not sub.is_dir():
                continue
            try:
                next(sub.iterdir())
            except StopIteration:
                try:
                    sub.rmdir()
                except OSError:
                    pass
            except OSError:
                pass


class ResultCache(PayloadCache):
    """:class:`PayloadCache` specialised to :class:`SimStats` entries."""

    def load(self, key: str) -> Optional[SimStats]:
        """Return the cached result, or None on miss/corruption."""
        payload = self.load_payload(key)
        if payload is None:
            return None
        try:
            return SimStats.from_dict(payload)
        except Exception:
            # Stale schema: quarantine the entry and treat it as a miss.
            self._quarantine(self.path_for(key), "stale schema")
            return None

    def store(self, key: str, result: SimStats) -> bool:
        """Atomically persist one result, best-effort; True if published."""
        return self.store_payload(key, result.to_dict())

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """Summary of what is on disk (for ``repro cache info``).

        Counts cache entries only -- the work queue under ``queue/`` is
        not part of the cache, so its job files are excluded here just as
        they are from :meth:`gc` and :meth:`clear`.
        """
        entries = 0
        corrupt = 0
        total_bytes = 0
        for path in self._gc_candidates():
            if not path.name.endswith(".json"):
                continue
            if path.parent.name == CORRUPT_TOP:
                corrupt += 1
                continue
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": entries,
            "corrupt": corrupt,
            "bytes": total_bytes,
            "code_version": code_version(),
        }

    def clear(self) -> int:
        """Delete every cached result; returns how many were removed.

        Leaves the work queue under ``queue/`` alone: clearing the cache
        must not destroy another submitter's in-flight jobs (use
        ``repro status --purge`` for that).
        """
        removed = 0
        if self.root.is_dir():
            for path in self._gc_candidates():
                if not path.name.endswith(".json"):
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for sub in self.root.iterdir():
                if sub.is_dir() and sub.name not in GC_EXCLUDE_TOP:
                    shutil.rmtree(sub, ignore_errors=True)
        return removed
