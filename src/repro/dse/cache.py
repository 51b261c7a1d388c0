"""Content-addressed result cache for campaign evaluations.

A cache entry is addressed by the SHA-256 fingerprint
(:mod:`repro.dse.fingerprint`) of everything that determines the
result: the full design point, the evaluation tier, and the cache
schema version. Identity is *content*, so two campaigns (or two
processes, or two sessions) asking for the same configuration share one
entry, and changing any swept parameter — block size, device, fusion,
one float of the mesh arithmetic — misses by construction.

Entries live in memory always and, when a directory is configured, in
**segment files**, one per :meth:`ResultCache.put_many`: a grid chunk's
or a pool batch's results. Each line is a record,
``<key> <crc32> <row>``; the CRC32 and the closing newline detect a torn
or bit-rotted record. The row is compact JSON in declaration order,
``[[<DesignPoint fields>], <PointResult fields>]`` (the columns of
:data:`~repro.dse.campaign.POINT_FIELDS` and
:data:`~repro.dse.tiers.RESULT_FIELDS`), so no field name is spelled
out per record. A segment is published atomically (temp file, then
:func:`os.replace` onto a name derived from its content), so concurrent
writers can never expose a torn one. Its name carries the schema,
``<digest>.v<SCHEMA_VERSION>.seg``: a reader indexes only its own
schema's segments and leaves other files — other schemas' segments, the
``<key>.json`` files of older versions — alone. A reader indexes the
directory on its first lookup and keeps parsed results; pool workers
only write, so they never pay for the scan.

The cache degrades instead of failing: a corrupted / truncated /
unreadable record is a **miss** (counted in ``stats.corrupt``, then
recomputed into a new segment; a segment with no valid record is
removed), and a failed disk write (disk full, permissions) keeps the
in-memory entries, warns, and counts ``stats.write_errors`` — a sick
filesystem slows a campaign down, it never kills it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

from ..errors import DSEError
from ..testing import faults
from .campaign import POINT_FIELDS, DesignPoint
from .fingerprint import fingerprint
from .tiers import RESULT_FIELDS, TIERS, PointResult

#: Bump when the on-disk payload shape changes; part of every key, so a
#: schema change invalidates (rather than misreads) old entries.
#: 2: PointResult grew ``status``/``error`` (quarantined-failure fields).
#: 3: segment files; closed-form cycles priced by the O(tasks) form.
#: 4: records are fixed-order JSON rows; the schema tags the suffix.
SCHEMA_VERSION = 4

#: Suffix of a published segment file of this schema.
_SEGMENT_SUFFIX = f".v{SCHEMA_VERSION}.seg"

#: Compact JSON, one encoder and one decoder for every record.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()

#: A row: the point's columns as one list, then the result's columns.
_ROW_LENGTH = 1 + len(RESULT_FIELDS)


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


#: A point's and a result's columns, in field order.
_point_columns = attrgetter(*POINT_FIELDS)
_result_columns = attrgetter(*RESULT_FIELDS)


def _record(key: str, result: PointResult, texts: dict) -> str:
    """One segment line: key, CRC32 of the row, the row.

    ``texts`` memoizes the result columns' text across one segment's
    records. Its key holds the columns, so no other object can take
    their ids: rows share text only when their columns are the very
    same objects, never merely equal ones (``-0.0`` and ``0.0``, ``1``
    and ``1.0``, two NaNs)."""
    columns = _result_columns(result)
    memo = (tuple(map(id, columns)), columns)
    text = texts.get(memo)
    if text is None:
        text = texts[memo] = _ENCODER.encode(columns)[1:]
    body = f"[{_ENCODER.encode(_point_columns(result.point))},{text}"
    return f"{key} {zlib.crc32(body.encode()):08x} {body}\n"


def _parse(line: bytes) -> tuple[str, PointResult]:
    """Inverse of :func:`_record`; raises ``ValueError``, ``TypeError``
    or :class:`~repro.errors.DSEError` on a bad record."""
    key, crc, body = line.split(b" ", 2)
    if int(crc, 16) != zlib.crc32(body):
        raise ValueError("record checksum mismatch")
    # Rows are ASCII (the encoder escapes the rest) and never padded:
    # ``raw_decode`` skips the sniffing and whitespace scans of
    # ``json.loads``, and any byte after the row is a bad record.
    text = body.decode()
    row, end = _DECODER.raw_decode(text)
    if not (
        end == len(text)
        and type(row) is list
        and len(row) == _ROW_LENGTH
        and type(row[0]) is list
        and len(row[0]) == len(POINT_FIELDS)
    ):
        raise DSEError("malformed cached result row")
    # DesignPoint validates its fields, so a foreign row fails here.
    point = DesignPoint(*row[0])
    return key.decode(), PointResult.filled(point, row[1:], True)


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
        """Load every valid record of the directory's segments of this
        schema (other files are left alone).

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

        ``persist=False`` fills only the in-memory layer — the
        executor's cosim tier uses it because its pool workers already
        wrote their segments to the shared directory themselves.
        """
        items = list(items)
        for key, result in items:
            # The memory layer holds the served (from_cache=True)
            # variant so the lookup hot path returns it without copying;
            # the on-disk body carries no provenance flag either way.
            served = self._memory[key] = object.__new__(PointResult)
            served.__dict__.update(vars(result), from_cache=True)
        self.stats.writes += len(items)
        if self._directory is None or not persist or not items:
            return
        texts: dict = {}
        payload = "".join(_record(key, r, texts) for key, r in items)
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

    def __len__(self) -> int:
        """Entries in memory, after indexing the directory."""
        if not self._indexed:
            self._index()
        return len(self._memory)
