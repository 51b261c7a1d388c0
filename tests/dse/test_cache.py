"""Content-addressed cache semantics: hits, invalidation, segment files,
corruption recovery, concurrency."""

import dataclasses
import json
import multiprocessing
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.cache import (
    _SEGMENT_SUFFIX,
    ResultCache,
    _parse,
    _ENCODER,
    _record,
    cache_key,
)
from repro.dse.campaign import CASES, PARTITIONS, POINT_FIELDS, DesignPoint
from repro.dse.tiers import (
    RESULT_FIELDS,
    TIERS,
    PointResult,
    evaluate_closed_form,
)
from repro.errors import DSEError
from repro.fpga.device import DEVICE_REGISTRY
from repro.pipeline.navier_stokes import FUSIONS
from repro.precision import DTYPE_MODES

POINT = DesignPoint(polynomial_order=2, elements_per_direction=2)
KEY = cache_key(POINT, "closed-form")


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
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    result = evaluate_closed_form(POINT)
    cache.put_many([(KEY, result)])
    assert cache.stats.writes == 1
    hit = cache.get(KEY)
    assert hit is not None and hit.from_cache
    assert hit == dataclasses.replace(result, from_cache=True)
    assert not result.from_cache
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5


def test_cached_result_is_bitwise_identical(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = evaluate_closed_form(POINT)
    cache.put_many([(KEY, fresh)])

    # A separate instance must read back through the segment file.
    other = ResultCache(tmp_path)
    cached = other.get(KEY)
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
    cache.put_many([(KEY, evaluate_closed_form(POINT))])
    changed = dataclasses.replace(POINT, block_size=2)
    assert cache.get(cache_key(changed, "closed-form")) is None


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


def _row(result):
    """The record row of a result, built from the public field orders."""
    spec = result.point.spec()
    fields = result.to_dict()
    return [[spec[name] for name in POINT_FIELDS]] + [
        fields[name] for name in RESULT_FIELDS
    ]


def _roundtrip(key, result):
    return _parse(_record(key, result, {}).rstrip("\n").encode())


def test_put_writes_one_checksummed_segment(tmp_path):
    cache = ResultCache(tmp_path)
    result = evaluate_closed_form(POINT)
    cache.put_many([(KEY, result)])
    (segment,) = _segments(tmp_path)
    assert segment.name.endswith(".v4.seg")
    key, crc, body = segment.read_text().rstrip("\n").split(" ", 2)
    assert key == cache_key(POINT, "closed-form")
    assert int(crc, 16) == zlib.crc32(body.encode())
    assert json.loads(body) == _row(result)
    assert body == json.dumps(_row(result), separators=(",", ":"))


def test_point_result_roundtrips_through_a_record():
    fresh = evaluate_closed_form(DesignPoint(elements_per_direction=2))
    key, back = _roundtrip("k", fresh)
    assert key == "k"
    assert back == dataclasses.replace(fresh, from_cache=True)
    with pytest.raises(DSEError, match="malformed"):
        line = _segment_line("k", '{"tier":"closed-form"}')
        _parse(line.rstrip("\n").encode())


_points = st.builds(
    DesignPoint,
    polynomial_order=st.integers(1, 5),
    elements_per_direction=st.integers(1, 6),
    block_size=st.integers(1, 64),
    num_cus=st.integers(1, 4),
    device=st.sampled_from(sorted(DEVICE_REGISTRY)),
    fusion=st.sampled_from(FUSIONS),
    partition=st.sampled_from(PARTITIONS),
    num_steps=st.integers(1, 100),
    case=st.sampled_from(CASES),
    precision=st.sampled_from(DTYPE_MODES),
)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_ok_results = st.builds(
    PointResult,
    point=_points,
    tier=st.sampled_from(TIERS),
    step_cycles=_floats,
    rkl_stage_cycles=_floats,
    rku_step_cycles=_floats,
    clock_mhz=_floats,
    step_seconds=_floats,
    run_seconds=_floats,
    num_nodes=st.integers(1, 10**9),
    num_elements=st.integers(1, 10**9),
    lut=_floats,
    ff=_floats,
    bram36=_floats,
    uram=_floats,
    dsp=_floats,
    state_max_rel_err=st.none() | _floats,
)
_errors = st.text() | st.sampled_from(
    [
        'worker died: "SIGKILL"',
        "line one\nline two",
        "pr\u00e9cision \u2260 \u8a2d\u8a08",
    ]
)
_failed_results = st.builds(
    PointResult.failed, _points, st.sampled_from(TIERS), _errors
)


@settings(max_examples=200, deadline=None)
@given(
    result=_ok_results | _failed_results,
    tail=st.sampled_from(["", "", "", " ", "0", "[]", ',"x"']),
)
@example(result=PointResult.failed(POINT, "exact", "boom"), tail=" [1]")
def test_record_roundtrip_property(result, tail):
    """Every result, ok or failed, on every tier, survives the codec:
    one line per record, every field equal, served as cached. Bytes
    after the row are a bad record even under a CRC that covers them."""
    key = cache_key(result.point, result.tier)
    line = _record(key, result, {})
    assert line.endswith("\n") and line.count("\n") == 1
    if tail:
        body = line.rstrip("\n").split(" ", 2)[2] + tail
        with pytest.raises((ValueError, DSEError)):
            _parse(_segment_line(key, body).rstrip("\n").encode())
        return
    parsed_key, back = _roundtrip(key, result)
    assert parsed_key == key
    assert back.to_dict() == result.to_dict()
    assert back.from_cache


@settings(max_examples=100, deadline=None)
@given(result=_ok_results | _failed_results)
def test_row_filled_results_equal_constructed_ones(result):
    """Results filled straight from their columns (a parsed record, the
    memory layer's served copy) are the ``PointResult(...)``-built
    result: equal, field for field, and flagged as cached."""
    columns = [getattr(result, name) for name in RESULT_FIELDS]
    built = PointResult(result.point, *columns, from_cache=True)
    _, parsed = _roundtrip("k", result)
    for back in (parsed, PointResult.filled(result.point, columns, True)):
        assert back == built
        assert [getattr(back, f.name) for f in dataclasses.fields(back)] == [
            getattr(built, f.name) for f in dataclasses.fields(built)
        ]
        assert back.from_cache is True
        assert list(vars(back)) == list(vars(built))
        assert hash(back.point) == hash(built.point)


def _twin(value):
    """An equal value in a new object, with other JSON text where one
    exists: ``0.0``/``-0.0`` swap, integral values change type, and the
    rest (NaN, infinities, other floats, ints) are re-made from text."""
    if isinstance(value, int):
        as_float = float(value)
        return as_float if as_float == value else int(str(value))
    if value == 0:
        return -value
    if value.is_integer():
        return int(value)
    return float(repr(value))


def _copy(value):
    """An equal value with the same JSON text, in a new object unless
    the interpreter interns it."""
    return float(repr(value)) if isinstance(value, float) else int(str(value))


#: Result-column values whose equal twins print differently.
_tricky = (
    st.sampled_from([0.0, -0.0, 1, 1.0, 2**60, float("nan"), float("inf")])
    | st.floats()
    | st.integers()
)
#: The numeric columns of a result: ``step_cycles`` through ``dsp``,
#: then ``state_max_rel_err``.
_NUMERIC = slice(1, 15)
_NUMERIC_COUNT = len(RESULT_FIELDS[_NUMERIC])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        _tricky, min_size=_NUMERIC_COUNT, max_size=_NUMERIC_COUNT
    ),
    rows=st.lists(
        st.tuples(_points, st.sampled_from(["same", "twin", "copy"])),
        min_size=1,
        max_size=6,
    ),
)
@example(
    values=[0.0, 1] + [-float("inf"), float("nan")] * 6,
    rows=[(POINT, "twin"), (POINT, "same"), (POINT, "copy")],
)
@example(
    values=[-0.0, 1.0] + [2**60, 0.5] * 6,
    rows=[(POINT, "same"), (POINT, "twin")],
)
def test_shared_record_text_is_byte_exact(values, rows):
    """Records of one segment share result-column text only between
    rows holding the very same column objects: every line equals the one
    encoded from its own row, whatever equal-valued neighbor (``-0.0``
    beside ``0.0``, ``1`` beside ``1.0``, NaN, infinities, equal values
    in distinct objects) came first."""
    base = ("closed-form", *values, "ok", None)
    variants = {"twin": _twin, "copy": _copy}
    texts = {}
    for index, (point, variant) in enumerate(rows + [(POINT, "same")]):
        columns = list(base)
        if variant != "same":
            columns[_NUMERIC] = map(variants[variant], base[_NUMERIC])
        result = PointResult.filled(point, columns)
        row = [[getattr(point, name) for name in POINT_FIELDS], *columns]
        assert _record(str(index), result, texts) == _segment_line(
            str(index), _ENCODER.encode(row)
        )


@pytest.mark.parametrize(
    "column, value",
    [
        ("device", "versal"),
        ("num_cus", 0),
        ("fusion", "warp"),
        ("precision", "f16"),
        ("polynomial_order", "2"),
    ],
)
def test_foreign_point_row_fails_the_parse(column, value):
    row = _row(evaluate_closed_form(POINT))
    row[0][POINT_FIELDS.index(column)] = value
    body = json.dumps(row, separators=(",", ":"))
    with pytest.raises(DSEError):
        _parse(_segment_line("k", body).rstrip("\n").encode())


def test_parsed_point_is_canonicalized():
    row = _row(evaluate_closed_form(POINT))
    row[0][POINT_FIELDS.index("precision")] = "f32"
    body = json.dumps(row, separators=(",", ":"))
    _, back = _parse(_segment_line("k", body).rstrip("\n").encode())
    assert back.point.precision == "float32"


def test_flipping_any_body_byte_fails_the_parse():
    line = _record("k", evaluate_closed_form(POINT), {})
    line = line.rstrip("\n").encode()
    start = line.index(b" ", line.index(b" ") + 1) + 1
    for position in range(start, len(line)):
        for mask in range(1, 256):
            bad = bytearray(line)
            bad[position] ^= mask
            with pytest.raises((ValueError, TypeError, DSEError)):
                _parse(bytes(bad))


@pytest.mark.parametrize(
    "reshape",
    [
        lambda row: row + [None],
        lambda row: row[:-1],
        lambda row: [row[0][:-1]] + row[1:],
        lambda row: [row[0] + ["extra"]] + row[1:],
        lambda row: [dict(zip(POINT_FIELDS, row[0]))] + row[1:],
    ],
    ids=["long", "short", "short-point", "long-point", "dict-point"],
)
def test_wrong_shape_row_is_a_counted_miss(tmp_path, reshape):
    key = cache_key(POINT, "closed-form")
    row = reshape(_row(evaluate_closed_form(POINT)))
    (tmp_path / f"reshaped{_SEGMENT_SUFFIX}").write_text(
        _segment_line(key, json.dumps(row, separators=(",", ":")))
    )
    cache = ResultCache(tmp_path)
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_other_schema_segments_are_left_alone(tmp_path):
    """A segment of an older schema (a schema-3 ``<digest>.seg`` of
    sorted-key JSON objects) is neither read nor counted nor removed."""
    key = cache_key(POINT, "closed-form")
    body = json.dumps(
        evaluate_closed_form(POINT).to_dict(),
        sort_keys=True,
        separators=(",", ":"),
    )
    old = tmp_path / ("0" * 32 + ".seg")
    old.write_text(_segment_line(key, body))
    cache = ResultCache(tmp_path)
    assert cache.get(key) is None
    assert cache.stats.corrupt == 0
    assert old.exists()


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
    assert all(reader.get(cache_key(p, "closed-form")) for p in points)


def test_reader_indexes_lazily(tmp_path):
    """A segment published after construction but before the first
    lookup is seen: the directory is scanned on the first lookup."""
    reader = ResultCache(tmp_path)
    ResultCache(tmp_path).put_many([(KEY, evaluate_closed_form(POINT))])
    assert reader.get(KEY) is not None


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
    path = tmp_path / f"garbage{_SEGMENT_SUFFIX}"
    path.write_text("{not json")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert cache.stats.misses == 1
    assert not path.exists()  # bad segment dropped
    cache.put_many([(KEY, evaluate_closed_form(POINT))])
    assert len(_segments(tmp_path)) == 1
    fresh = ResultCache(tmp_path)
    served = fresh.get(KEY)
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
    lines = segment.read_bytes().splitlines(keepends=True)
    bad = bytearray(lines[1])
    body_start = bad.index(b"[")
    bad[body_start + 5] ^= 0x01  # a body byte: the CRC now mismatches
    lines[1] = bytes(bad)
    segment.write_bytes(b"".join(lines))
    fresh = ResultCache(tmp_path)
    assert fresh.get(cache_key(points[1], "closed-form")) is None
    assert fresh.get(cache_key(points[0], "closed-form")) is not None
    assert fresh.get(cache_key(points[2], "closed-form")) is not None
    assert fresh.stats.corrupt == 1
    assert segment.exists()


def test_truncated_entry_is_a_miss(tmp_path):
    """The torn tail of a killed writer (or a partial copy) behaves
    exactly like corruption: miss, count, recover."""
    cache = ResultCache(tmp_path)
    cache.put_many([(KEY, evaluate_closed_form(POINT))])
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
    (tmp_path / f"foreign{_SEGMENT_SUFFIX}").write_text(
        _segment_line(key, '{"tier": "closed-form"}')
    )
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_unreadable_entry_is_a_miss(tmp_path):
    """A segment the process cannot read (permissions) is served as a
    miss rather than raising."""
    cache = ResultCache(tmp_path)
    key = cache_key(POINT, "closed-form")
    path = tmp_path / f"unreadable{_SEGMENT_SUFFIX}"
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
            cache.put_many([(KEY, result)])
    assert cache.stats.write_errors == 1
    assert not _segments(tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
    assert cache.get(KEY) is not None  # memory layer
    # The filesystem healed: the next write persists.
    cache.put_many([(KEY, result)])
    assert len(_segments(tmp_path)) == 1
    assert ResultCache(tmp_path).get(KEY) is not None


def test_truncated_write_fault_recovers_on_read(tmp_path):
    """An injected truncated publish lands a torn segment on disk; the
    next (fresh-process) read treats it as corruption and recovers."""
    from repro.testing import FaultSpec, injected_faults

    cache = ResultCache(tmp_path)
    with injected_faults(
        FaultSpec(site="cache.write", kind="truncate", times=1)
    ):
        cache.put_many([(KEY, evaluate_closed_form(POINT))])
    fresh = ResultCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.stats.corrupt == 1
    assert not _segments(tmp_path)  # no valid record: segment removed
    fresh.put_many([(KEY, evaluate_closed_form(POINT))])
    assert ResultCache(tmp_path).get(KEY) is not None


def _write_entries(args):
    directory, points = args
    cache = ResultCache(directory)
    for point in points:
        key = cache_key(point, "closed-form")
        cache.put_many([(key, evaluate_closed_form(point))])
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
        result = reader.get(cache_key(point, "closed-form"))
        assert result is not None
        fresh = evaluate_closed_form(point)
        assert result.step_cycles == fresh.step_cycles
    assert reader.stats.corrupt == 0
    # No stray temp files survive the race.
    assert not list(tmp_path.glob("*.tmp"))
