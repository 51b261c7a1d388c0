"""Content-addressed result cache for campaign evaluations.

A cache entry is addressed by the SHA-256 fingerprint
(:mod:`repro.dse.fingerprint`) of everything that determines the
result: the full design point, the evaluation tier, and the cache
schema version. Identity is *content*, so two campaigns (or two
processes, or two sessions) asking for the same configuration share one
entry, and changing any swept parameter — block size, device, fusion,
one float of the mesh arithmetic — misses by construction.

Entries live in memory always and, when a directory is configured, in
**segment files**, one per write: a pool batch's results, or the one
result of :meth:`ResultCache.put`. Each line is a record,
``<key> <crc32> <json body>``; the CRC32 and the closing newline detect
a torn or bit-rotted record. A segment is published atomically (temp
file, then :func:`os.replace` onto a name derived from its content), so
concurrent writers can never expose a torn one. ``<key>.json`` files
left by older versions are ignored. A reader indexes the directory on
its first lookup and keeps parsed results; pool workers only write, so
they never pay for the scan.

The cache degrades instead of failing: a corrupted / truncated /
unreadable record is a **miss** (counted in ``stats.corrupt``, then
recomputed into a new segment; a segment with no valid record is
removed), and a failed disk write (disk full, permissions) keeps the
in-memory entries, warns, and counts ``stats.write_errors`` — a sick
filesystem slows a campaign down, it never kills it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..errors import DSEError
from ..testing import faults
from .campaign import DesignPoint
from .fingerprint import fingerprint
from .tiers import PointResult, TIERS

#: Bump when the on-disk payload shape changes; part of every key, so a
#: schema change invalidates (rather than misreads) old entries.
#: 2: PointResult grew ``status``/``error`` (quarantined-failure fields).
#: 3: segment files; closed-form cycles priced by the O(tasks) form.
SCHEMA_VERSION = 3

#: Suffix of a published segment file.
_SEGMENT_SUFFIX = ".seg"


@lru_cache(maxsize=65536)
def _content_key(point: DesignPoint, tier: str) -> str:
    return fingerprint(
        {"schema": SCHEMA_VERSION, "tier": tier, "point": point.spec()}
    )


def cache_key(point: DesignPoint, tier: str) -> str:
    """The content address of one (point, tier) evaluation.

    Memoized per process: design points are frozen, so a key is a pure
    function of its arguments, and campaigns address the same points
    repeatedly (pre-check, store, warm re-runs).
    """
    if tier not in TIERS:
        raise DSEError(f"unknown tier {tier!r}; tiers: {', '.join(TIERS)}")
    return _content_key(point, tier)


def _served(result: PointResult) -> PointResult:
    """A ``from_cache=True`` copy, cheap enough for the lookup hot path
    (``dataclasses.replace`` re-runs ``__init__`` and costs ~5x more)."""
    clone = copy.copy(result)
    object.__setattr__(clone, "from_cache", True)
    return clone


def _record(key: str, result: PointResult) -> str:
    """One segment line: key, CRC32 of the body, the JSON body."""
    body = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return f"{key} {zlib.crc32(body.encode()):08x} {body}\n"


def _parse(line: bytes) -> tuple[str, PointResult]:
    """Inverse of :func:`_record`; raises ``ValueError``, ``TypeError``
    or :class:`~repro.errors.DSEError` on a bad record."""
    key, crc, body = line.split(b" ", 2)
    if int(crc, 16) != zlib.crc32(body):
        raise ValueError("record checksum mismatch")
    data = dict(json.loads(body), from_cache=True)
    return key.decode(), PointResult.from_dict(data)


@dataclass
class CacheStats:
    """Hit/miss/write accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupted / truncated / unreadable on-disk records, each served
    #: as a miss (and rewritten once recomputed).
    corrupt: int = 0
    #: Disk writes that failed (entry kept in memory, warning issued).
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """In-memory + optional on-disk store of :class:`PointResult`.

    Parameters
    ----------
    directory:
        When given, entries persist as segment files there (created on
        demand), surviving the process and shared across concurrent
        writers; when ``None`` the cache is process-local memory only.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, PointResult] = {}
        self._directory: Path | None = None
        self._indexed = directory is None
        self.stats = CacheStats()
        if directory is not None:
            path = Path(directory)
            if path.exists() and not path.is_dir():
                raise DSEError(
                    f"cache directory {path} exists and is not a directory"
                )
            path.mkdir(parents=True, exist_ok=True)
            self._directory = path

    @property
    def directory(self) -> Path | None:
        return self._directory

    def _index(self) -> None:
        """Load every valid record of the directory's segments.

        Entries already in memory win (same content either way). A bad
        record counts in ``stats.corrupt``; a segment with no valid
        record is removed so the directory heals once the miss is
        recomputed.
        """
        self._indexed = True
        try:
            entries = list(os.scandir(self._directory))
        except OSError:
            return
        for entry in entries:
            if not entry.name.endswith(_SEGMENT_SUFFIX):
                continue
            valid = bad = 0
            try:
                with open(entry.path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                continue  # removed by a concurrent reader
            except OSError:
                data, bad = b"", 1
            lines = data.split(b"\n")
            # A complete segment ends with a newline, so the last piece
            # is empty; anything else is a torn final record.
            if lines.pop():
                bad += 1
            for line in lines:
                try:
                    key, result = _parse(line)
                except (ValueError, TypeError, DSEError):
                    bad += 1
                    continue
                valid += 1
                self._memory.setdefault(key, result)
            self.stats.corrupt += bad
            if not valid:
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass

    def get(self, key: str) -> PointResult | None:
        """The cached result for a key, or ``None`` (counted as hit/miss).

        Served results carry ``from_cache=True`` so downstream
        accounting (and the bitwise cached-vs-fresh tests) can tell the
        provenance apart while every priced field stays identical.
        """
        if not self._indexed:
            self._index()
        result = self._memory.get(key)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put_many(self, items, *, persist: bool = True) -> None:
        """Store ``(key, result)`` pairs, on disk as one segment.

        ``persist=False`` fills only the in-memory layer — the parallel
        executor's merge path uses it when pool workers already wrote
        the segment to the shared directory themselves.
        """
        items = list(items)
        for key, result in items:
            # The memory layer holds the served (from_cache=True)
            # variant so the lookup hot path returns it without copying;
            # the on-disk body carries no provenance flag either way.
            self._memory[key] = _served(result)
        self.stats.writes += len(items)
        if self._directory is None or not persist or not items:
            return
        payload = "".join(_record(key, result) for key, result in items)
        # Atomic publish: readers see either no segment or a complete
        # one, never a torn write. A failed write (disk full,
        # permissions) degrades to memory-only: the campaign keeps
        # running, the warning and ``stats.write_errors`` surface the
        # sick filesystem.
        first = items[0][0]
        try:
            fired = faults.trip("cache.write", context=first)
            if fired is not None and fired.kind == "truncate":
                payload = payload[: max(1, len(payload) // 3)]
            data = payload.encode()
            name = hashlib.blake2b(data, digest_size=16).hexdigest()
            fd, tmp_name = tempfile.mkstemp(
                dir=self._directory, prefix=f".{name[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(
                    tmp_name, self._directory / f"{name}{_SEGMENT_SUFFIX}"
                )
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.stats.write_errors += 1
            warnings.warn(
                f"cache write failed for {first[:16]}… ({exc}); "
                f"{len(items)} entries kept in memory only",
                RuntimeWarning,
                stacklevel=2,
            )

    def put(
        self, key: str, result: PointResult, *, persist: bool = True
    ) -> None:
        """Store one result: a one-record :meth:`put_many`."""
        self.put_many([(key, result)], persist=persist)

    def lookup(self, point: DesignPoint, tier: str) -> PointResult | None:
        """:meth:`get` keyed by content (:func:`cache_key`)."""
        return self.get(cache_key(point, tier))

    def store(
        self, point: DesignPoint, tier: str, result: PointResult
    ) -> None:
        """:meth:`put` keyed by content (:func:`cache_key`)."""
        self.put(cache_key(point, tier), result)

    def __len__(self) -> int:
        """Entries in memory, after indexing the directory."""
        if not self._indexed:
            self._index()
        return len(self._memory)
