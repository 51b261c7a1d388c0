"""Stable-hash semantics: equal content agrees, any change collides away."""

import dataclasses

import numpy as np
import pytest

from repro.dse.fingerprint import canonicalize, fingerprint
from repro.dse.campaign import DesignPoint
from repro.dse.tiers import TIERS
from repro.errors import DSEError


def test_equal_content_agrees_across_container_flavors():
    assert fingerprint([1, 2, 3]) == fingerprint((1, 2, 3))
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint(np.int64(7)) == fingerprint(7)
    assert fingerprint(np.array([1.5, 2.5])) == fingerprint([1.5, 2.5])
    assert fingerprint(np.float64(1.5)) == fingerprint(1.5)


def test_digest_is_stable_across_calls():
    point = DesignPoint()
    assert fingerprint(point) == fingerprint(DesignPoint())


def test_every_design_point_field_is_significant():
    """Changing any single field must change the digest (the cache's
    invalidation-on-any-parameter guarantee)."""
    base = DesignPoint()
    variants = {
        "polynomial_order": 3,
        "elements_per_direction": 3,
        "block_size": 2,
        "num_cus": 2,
        "device": "hbm",
        "fusion": "none",
        "partition": "contiguous",
        "num_steps": 2,
        "case": "channel",
    }
    digests = {fingerprint(base)}
    for name, value in variants.items():
        digest = fingerprint(dataclasses.replace(base, **{name: value}))
        assert digest not in digests, f"field {name} did not move the digest"
        digests.add(digest)


def test_float_last_bit_is_significant():
    value = 0.1
    bumped = np.nextafter(value, 1.0)
    assert fingerprint(value) != fingerprint(float(bumped))


def test_dataclass_type_name_is_part_of_identity():
    point = DesignPoint()
    as_dict = {
        field.name: getattr(point, field.name)
        for field in dataclasses.fields(point)
    }
    assert fingerprint(point) != fingerprint(as_dict)


def test_bool_and_int_do_not_collide():
    assert fingerprint(True) != fingerprint(1)
    assert fingerprint({"x": 1.0}) != fingerprint({"x": 1})


@dataclasses.dataclass(frozen=True)
class _Settings:
    polynomial_order: int = 2
    cfl: float = 0.5
    backend: str | None = None


def test_frozen_dataclass_fingerprints():
    a = fingerprint(_Settings())
    b = fingerprint(_Settings(polynomial_order=3))
    assert a != b
    assert a == fingerprint(_Settings())


def test_sets_are_order_free():
    assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})


def test_unsupported_types_raise():
    with pytest.raises(DSEError):
        fingerprint(lambda: None)
    with pytest.raises(DSEError):
        fingerprint({("tuple", "key"): 1})


def test_canonical_form_is_json_ready():
    import json

    canonical = canonicalize(
        {"point": DesignPoint(), "values": (1, 2.5, np.float64(3.5))}
    )
    json.dumps(canonical)  # must not raise


def test_cache_keys_are_pinned():
    """The cache keys of the default point, one per tier, as published
    under schema 4: a change to the canonical form that moves a digest
    orphans every cache on disk."""
    from repro.dse.cache import SCHEMA_VERSION, cache_key

    assert SCHEMA_VERSION == 4
    assert {tier: cache_key(DesignPoint(), tier) for tier in TIERS} == {
        "closed-form": "cf51eb07d9ec8520ddd555da24b7ce32"
        "2392fd80528e9b441ad3a6283f905a70",
        "exact": "30626e0fd5f8e62a934fb7cc5ce3c7e6"
        "19c00b5c17474ad2c2c9fba561b98d92",
        "cosim": "6f2b2fc742409a003e23d6c79039b88a"
        "9522724b6daea3d5c024a867c834baf3",
    }


def test_subclass_values_canonicalize_like_their_base_type():
    """Mapping subclasses and numpy scalars canonicalize to the same
    form as the plain dict and Python values they stand for."""
    import collections

    plain = {"b": [1, "x", True, None], "a": 2}
    ordered = collections.OrderedDict(
        [
            ("a", np.int64(2)),
            ("b", (np.int32(1), np.str_("x"), np.bool_(True), None)),
        ]
    )
    assert canonicalize(ordered) == canonicalize(plain)
    assert fingerprint(ordered) == fingerprint(plain)
