"""Design points and campaign expansion: arithmetic, validation, feasibility."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.campaign import (
    CASES,
    PARTITIONS,
    POINT_FIELDS,
    CampaignSpec,
    DesignPoint,
)
from repro.errors import DSEError
from repro.fpga.device import DEVICE_REGISTRY
from repro.pipeline.navier_stokes import FUSIONS


def test_default_point_is_feasible():
    point = DesignPoint()
    assert point.infeasibility() is None


def test_mesh_arithmetic_matches_built_meshes():
    for point in (
        DesignPoint(polynomial_order=2, elements_per_direction=2),
        DesignPoint(polynomial_order=3, elements_per_direction=2),
        DesignPoint(polynomial_order=2, elements_per_direction=3, case="channel"),
    ):
        mesh = point.mesh()
        assert mesh.num_elements == point.num_elements
        assert mesh.num_nodes == point.num_nodes


@pytest.mark.parametrize(
    "kwargs",
    [
        {"polynomial_order": 0},
        {"elements_per_direction": 0},
        {"block_size": 0},
        {"num_cus": 0},
        {"num_steps": 0},
        {"device": "versal"},
        {"fusion": "super"},
        {"partition": "striped"},
        {"case": "cavity"},
    ],
)
def test_invalid_point_fields_raise(kwargs):
    with pytest.raises(DSEError):
        DesignPoint(**kwargs)


def test_cu_ceiling_is_a_device_property():
    u200 = DesignPoint(num_cus=4, device="u200", elements_per_direction=2)
    assert "memory-attached" in u200.infeasibility()
    hbm = DesignPoint(num_cus=4, device="hbm", elements_per_direction=2)
    assert hbm.infeasibility() is None


def test_more_cus_than_elements_is_infeasible():
    point = DesignPoint(num_cus=2, device="u200", elements_per_direction=1)
    assert "element" in point.infeasibility()


def test_periodic_seam_minimum():
    point = DesignPoint(polynomial_order=1, elements_per_direction=1)
    assert "nodes per direction" in point.infeasibility()


def test_partitions_cover_mesh_once_for_both_strategies():
    for strategy in ("balanced", "contiguous"):
        point = DesignPoint(
            elements_per_direction=3, num_cus=2, partition=strategy
        )
        parts = point.element_partitions()
        assert len(parts) == point.num_cus
        covered = np.sort(np.concatenate(parts))
        assert np.array_equal(covered, np.arange(point.num_elements))


def test_contiguous_falls_back_when_batches_underfill_cus():
    """Ceil-sized contiguous batches can exhaust the mesh early; the
    shard count must still equal num_cus."""
    point = DesignPoint(
        elements_per_direction=2,
        num_cus=3,
        device="hbm",
        partition="contiguous",
    )
    parts = point.element_partitions()
    assert len(parts) == 3
    assert sum(len(p) for p in parts) == point.num_elements


def test_campaign_expand_counts_and_order():
    spec = CampaignSpec(
        name="t",
        axes=(
            ("num_cus", (1, 2, 4)),
            ("device", ("u200", "hbm")),
        ),
    )
    points, skipped = spec.expand()
    # 4 CUs on the U200 is the one infeasible combination.
    assert len(points) == 5
    assert len(skipped) == 1
    assert skipped[0][0].num_cus == 4 and skipped[0][0].device == "u200"
    # Deterministic expansion order: last axis fastest.
    assert [(p.num_cus, p.device) for p in points] == [
        (1, "u200"),
        (1, "hbm"),
        (2, "u200"),
        (2, "hbm"),
        (4, "hbm"),
    ]


def test_campaign_axes_validation():
    with pytest.raises(DSEError):
        CampaignSpec(name="t", axes=(("warp_speed", (1,)),))
    with pytest.raises(DSEError):
        CampaignSpec(name="t", axes=(("num_cus", ()),))
    with pytest.raises(DSEError):
        CampaignSpec(
            name="t", axes=(("num_cus", (1,)), ("num_cus", (2,)))
        )
    with pytest.raises(DSEError):
        CampaignSpec(name="", axes=())
    with pytest.raises(DSEError):
        CampaignSpec(name="t", axes=(), max_survivors=0)


def test_all_infeasible_grid_raises():
    spec = CampaignSpec(
        name="t",
        axes=(("num_cus", (3, 4)),),
        base=DesignPoint(device="u200"),
    )
    with pytest.raises(DSEError, match="no feasible points"):
        spec.expand()


def test_axis_values_reject_invalid_members_at_expansion():
    spec = CampaignSpec(name="t", axes=(("fusion", ("full", "warp")),))
    with pytest.raises(DSEError):
        spec.expand()


def test_spec_dict_is_json_ready():
    import json

    spec = CampaignSpec(name="t", axes=(("num_cus", (1, 2)),))
    json.dumps(spec.spec())


#: Candidate values per field: every valid value of the string fields
#: (every precision spelling included), small and large ints, and a few
#: invalid members.
_CANDIDATES = {
    "polynomial_order": (0, 1, 2, 3, 5),
    "elements_per_direction": (0, 1, 2, 3, 8),
    "block_size": (0, 1, 8, 64),
    "num_cus": (0, 1, 2, 3, 4, 5),
    "device": (*sorted(DEVICE_REGISTRY), "versal"),
    "fusion": (*FUSIONS, "warp"),
    "partition": (*PARTITIONS, "striped"),
    "num_steps": (0, 1, 100),
    "case": (*CASES, "cavity"),
    "precision": (
        "float64", "f64", "fp64", "double", "float32", "f32", "fp32",
        "single", "mixed", " Mixed ", "f16",
    ),
}


def _valid(name, value):
    try:
        DesignPoint(**{name: value})
    except DSEError:
        return False
    return True


#: The individually valid candidates of each field.
_VALID = {
    name: [v for v in values if _valid(name, v)]
    for name, values in _CANDIDATES.items()
}


def _longhand(spec):
    """Expansion the obvious way: build and validate every grid point."""
    names = [axis for axis, _ in spec.axes]
    points, skipped = [], []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        point = dataclasses.replace(spec.base, **dict(zip(names, combo)))
        reason = point.infeasibility()
        if reason is None:
            points.append(point)
        else:
            skipped.append((point, reason))
    if not points:
        raise DSEError(
            f"campaign {spec.name!r} expands to no feasible points "
            f"({len(skipped)} skipped)"
        )
    return points, skipped


def _outcome(expand):
    try:
        return expand()
    except DSEError as exc:
        return str(exc)


@st.composite
def _specs(draw):
    base = DesignPoint(
        **{name: draw(st.sampled_from(vs)) for name, vs in _VALID.items()}
    )
    names = draw(
        st.lists(st.sampled_from(POINT_FIELDS), max_size=5, unique=True)
    )
    # Mostly valid axis values; now and then an invalid one, so the
    # error a bad value raises is compared too.
    axes = tuple(
        (
            name,
            tuple(
                draw(
                    st.lists(
                        st.sampled_from(_VALID[name])
                        | st.sampled_from(_CANDIDATES[name]),
                        min_size=1,
                        max_size=4,
                    )
                )
            ),
        )
        for name in names
    )
    return CampaignSpec(name="prop", axes=axes, base=base)


@settings(max_examples=300, deadline=None)
@given(spec=_specs())
def test_expand_matches_a_point_by_point_build(spec):
    """Checking each axis value once and filling the product points
    directly gives exactly the points, order, skipped reasons and errors
    of building and validating every point."""
    got = _outcome(spec.expand)
    want = _outcome(lambda: _longhand(spec))
    if isinstance(want, str):
        assert got == want
        return
    (points, skipped), (want_points, want_skipped) = got, want
    assert points == want_points
    assert [reason for _, reason in skipped] == [
        reason for _, reason in want_skipped
    ]
    assert [point for point, _ in skipped] == [
        point for point, _ in want_skipped
    ]
    for point, built in zip(
        points + [p for p, _ in skipped],
        want_points + [p for p, _ in want_skipped],
    ):
        assert repr(point) == repr(built)
        rebuilt = DesignPoint(*point.spec().values())
        assert point == rebuilt
        assert hash(point) == hash(rebuilt)
        assert repr(point) == repr(rebuilt)
        assert list(vars(point)) == list(POINT_FIELDS)
        assert pickle.loads(pickle.dumps(point)) == point


def test_every_pair_of_valid_fields_makes_a_valid_point():
    """``CampaignSpec.expand`` checks each axis value on its own and
    never validates the product points: sound only while every check of
    ``DesignPoint.__post_init__`` reads one field. A check spanning two
    fields would reject some pair of individually valid values here."""
    for first, second in itertools.combinations(POINT_FIELDS, 2):
        for a, b in itertools.product(_VALID[first], _VALID[second]):
            DesignPoint(**{first: a, second: b})
