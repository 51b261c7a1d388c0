"""Content-addressed cache semantics: hits, invalidation, segment files,
corruption recovery, concurrency."""

import dataclasses
import json
import multiprocessing
import zlib

import pytest

from repro.dse.cache import ResultCache, cache_key
from repro.dse.campaign import DesignPoint
from repro.dse.tiers import evaluate_closed_form
from repro.errors import DSEError

POINT = DesignPoint(polynomial_order=2, elements_per_direction=2)


def test_key_depends_on_tier_and_every_point_field():
    base = cache_key(POINT, "closed-form")
    assert cache_key(POINT, "exact") != base
    assert cache_key(POINT, "cosim") != base
    for name, value in (
        ("block_size", 2),
        ("num_cus", 2),
        ("device", "hbm"),
        ("fusion", "none"),
        ("partition", "contiguous"),
        ("num_steps", 2),
        ("case", "channel"),
        ("polynomial_order", 3),
        ("elements_per_direction", 3),
    ):
        changed = dataclasses.replace(POINT, **{name: value})
        assert cache_key(changed, "closed-form") != base, name


def test_unknown_tier_raises():
    with pytest.raises(DSEError):
        cache_key(POINT, "rtl")


def test_memory_hit_miss_accounting():
    cache = ResultCache()
    assert cache.lookup(POINT, "closed-form") is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    result = evaluate_closed_form(POINT)
    cache.store(POINT, "closed-form", result)
    assert cache.stats.writes == 1
    hit = cache.lookup(POINT, "closed-form")
    assert hit is not None and hit.from_cache
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5


def test_cached_result_is_bitwise_identical(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = evaluate_closed_form(POINT)
    cache.store(POINT, "closed-form", fresh)

    # A separate instance must read back through the segment file.
    other = ResultCache(tmp_path)
    cached = other.lookup(POINT, "closed-form")
    assert cached is not None and cached.from_cache
    for field in (
        "step_cycles",
        "rkl_stage_cycles",
        "rku_step_cycles",
        "clock_mhz",
        "step_seconds",
        "run_seconds",
        "lut",
        "ff",
        "bram36",
        "uram",
        "dsp",
    ):
        assert getattr(cached, field) == getattr(fresh, field), field
    assert cached.point == fresh.point


def test_parameter_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(POINT, "closed-form", evaluate_closed_form(POINT))
    changed = dataclasses.replace(POINT, block_size=2)
    assert cache.lookup(changed, "closed-form") is None


def test_directory_must_be_a_directory(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(DSEError):
        ResultCache(target)


def _segments(directory):
    return sorted(directory.glob("*.seg"))


def _segment_line(key, body):
    """One record in the segment format: key, CRC32 of the body, body."""
    return f"{key} {zlib.crc32(body.encode()):08x} {body}\n"


def test_put_writes_one_checksummed_segment(tmp_path):
    cache = ResultCache(tmp_path)
    result = evaluate_closed_form(POINT)
    cache.store(POINT, "closed-form", result)
    (segment,) = _segments(tmp_path)
    key, crc, body = segment.read_text().rstrip("\n").split(" ", 2)
    assert key == cache_key(POINT, "closed-form")
    assert int(crc, 16) == zlib.crc32(body.encode())
    assert json.loads(body) == result.to_dict()


def test_put_many_writes_one_segment_per_batch(tmp_path):
    points = [dataclasses.replace(POINT, block_size=b) for b in (1, 2, 4)]
    cache = ResultCache(tmp_path)
    cache.put_many(
        (cache_key(p, "closed-form"), evaluate_closed_form(p))
        for p in points
    )
    (segment,) = _segments(tmp_path)
    assert len(segment.read_text().splitlines()) == len(points)
    reader = ResultCache(tmp_path)
    assert len(reader) == len(points)
    assert all(reader.lookup(p, "closed-form") for p in points)


def test_reader_indexes_lazily(tmp_path):
    """A segment published after construction but before the first
    lookup is seen: the directory is scanned on the first lookup."""
    reader = ResultCache(tmp_path)
    ResultCache(tmp_path).store(
        POINT, "closed-form", evaluate_closed_form(POINT)
    )
    assert reader.lookup(POINT, "closed-form") is not None


def test_legacy_json_entries_are_ignored(tmp_path):
    key = cache_key(POINT, "closed-form")
    legacy = tmp_path / f"{key}.json"
    legacy.write_text(json.dumps(evaluate_closed_form(POINT).to_dict()))
    cache = ResultCache(tmp_path)
    assert cache.get(key) is None
    assert cache.stats.corrupt == 0
    assert legacy.exists()


def test_corrupt_entry_is_a_miss_and_recovers(tmp_path):
    """A corrupted on-disk record is a MISS (counted in stats.corrupt),
    a segment with no valid record is removed, and the recompute
    rewrites the entry atomically — never a campaign-killing
    exception."""
    cache = ResultCache(tmp_path)
    key = cache_key(POINT, "closed-form")
    path = tmp_path / "garbage.seg"
    path.write_text("{not json")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert cache.stats.misses == 1
    assert not path.exists()  # bad segment dropped
    cache.store(POINT, "closed-form", evaluate_closed_form(POINT))
    assert len(_segments(tmp_path)) == 1
    fresh = ResultCache(tmp_path)
    served = fresh.lookup(POINT, "closed-form")
    assert served is not None and served.from_cache
    assert fresh.stats.corrupt == 0


def test_bad_record_spares_its_segment_mates(tmp_path):
    """One bit-rotted record is a miss; the valid records of the same
    segment are still served, and the segment is kept."""
    points = [dataclasses.replace(POINT, block_size=b) for b in (1, 2, 4)]
    ResultCache(tmp_path).put_many(
        (cache_key(p, "closed-form"), evaluate_closed_form(p))
        for p in points
    )
    (segment,) = _segments(tmp_path)
    lines = segment.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"tier"', '"tieR"')  # CRC now mismatches
    segment.write_text("".join(lines))
    fresh = ResultCache(tmp_path)
    assert fresh.lookup(points[1], "closed-form") is None
    assert fresh.lookup(points[0], "closed-form") is not None
    assert fresh.lookup(points[2], "closed-form") is not None
    assert fresh.stats.corrupt == 1
    assert segment.exists()


def test_truncated_entry_is_a_miss(tmp_path):
    """The torn tail of a killed writer (or a partial copy) behaves
    exactly like corruption: miss, count, recover."""
    cache = ResultCache(tmp_path)
    cache.store(POINT, "closed-form", evaluate_closed_form(POINT))
    key = cache_key(POINT, "closed-form")
    (path,) = _segments(tmp_path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.stats.corrupt == 1


def test_wrong_schema_payload_is_a_miss(tmp_path):
    """A well-framed record whose JSON does not deserialize to a
    PointResult (stale schema, foreign writer) is corruption, not a
    crash."""
    cache = ResultCache(tmp_path)
    key = cache_key(POINT, "closed-form")
    (tmp_path / "foreign.seg").write_text(
        _segment_line(key, '{"tier": "closed-form"}')
    )
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_unreadable_entry_is_a_miss(tmp_path):
    """A segment the process cannot read (permissions) is served as a
    miss rather than raising."""
    cache = ResultCache(tmp_path)
    key = cache_key(POINT, "closed-form")
    path = tmp_path / "unreadable.seg"
    path.write_text(_segment_line(key, "{}"))
    path.chmod(0)
    try:
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
    finally:
        try:
            path.chmod(0o644)
        except OSError:
            pass


def test_failed_disk_write_degrades_to_memory(tmp_path):
    """A cache-write failure (injected disk-full) keeps the entry in
    memory, warns, and counts stats.write_errors — the campaign
    continues."""
    from repro.testing import FaultSpec, injected_faults

    cache = ResultCache(tmp_path)
    result = evaluate_closed_form(POINT)
    with injected_faults(
        FaultSpec(site="cache.write", kind="disk-full", times=1)
    ):
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            cache.store(POINT, "closed-form", result)
    assert cache.stats.write_errors == 1
    assert not _segments(tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
    assert cache.lookup(POINT, "closed-form") is not None  # memory layer
    # The filesystem healed: the next write persists.
    cache.store(POINT, "closed-form", result)
    assert len(_segments(tmp_path)) == 1
    assert ResultCache(tmp_path).lookup(POINT, "closed-form") is not None


def test_truncated_write_fault_recovers_on_read(tmp_path):
    """An injected truncated publish lands a torn segment on disk; the
    next (fresh-process) read treats it as corruption and recovers."""
    from repro.testing import FaultSpec, injected_faults

    cache = ResultCache(tmp_path)
    with injected_faults(
        FaultSpec(site="cache.write", kind="truncate", times=1)
    ):
        cache.store(POINT, "closed-form", evaluate_closed_form(POINT))
    fresh = ResultCache(tmp_path)
    assert fresh.lookup(POINT, "closed-form") is None
    assert fresh.stats.corrupt == 1
    assert not _segments(tmp_path)  # no valid record: segment removed
    fresh.store(POINT, "closed-form", evaluate_closed_form(POINT))
    assert ResultCache(tmp_path).lookup(POINT, "closed-form") is not None


def _write_entries(args):
    directory, points = args
    cache = ResultCache(directory)
    for point in points:
        cache.store(point, "closed-form", evaluate_closed_form(point))
    cache.put_many(
        (cache_key(point, "closed-form"), evaluate_closed_form(point))
        for point in points
    )
    return len(points)


def test_concurrent_writers_never_tear_entries(tmp_path):
    """Several processes racing on the SAME keys must leave every
    segment complete and readable (atomic replace semantics)."""
    points = [
        dataclasses.replace(POINT, block_size=b, num_cus=n)
        for b in (1, 2, 4)
        for n in (1, 2)
    ]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(3) as pool:
        pool.map(_write_entries, [(str(tmp_path), points)] * 3)
    reader = ResultCache(tmp_path)
    for point in points:
        result = reader.lookup(point, "closed-form")
        assert result is not None
        fresh = evaluate_closed_form(point)
        assert result.step_cycles == fresh.step_cycles
    assert reader.stats.corrupt == 0
    # No stray temp files survive the race.
    assert not list(tmp_path.glob("*.tmp"))
