"""Pareto-front extraction: domination semantics and determinism."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.campaign import DesignPoint
from repro.dse.pareto import pareto_front, pareto_indices
from repro.dse.tiers import evaluate_closed_form
from repro.errors import DSEError


def test_known_front():
    values = np.array(
        [
            [1.0, 5.0],  # front (best first objective)
            [5.0, 1.0],  # front (best second objective)
            [3.0, 3.0],  # front (trade-off)
            [4.0, 4.0],  # dominated by [3, 3]
            [6.0, 6.0],  # dominated by everything
        ]
    )
    assert pareto_indices(values).tolist() == [0, 1, 2]


def test_duplicates_are_all_kept():
    values = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    assert pareto_indices(values).tolist() == [0, 1]


def test_single_objective_is_the_minimum():
    values = np.array([[3.0], [1.0], [2.0], [1.0]])
    assert pareto_indices(values).tolist() == [1, 3]


def test_front_soundness_on_real_results():
    """No front member is dominated; every non-member is dominated by
    some member — checked on genuinely priced design points."""
    results = [
        evaluate_closed_form(p)
        for p in (
            DesignPoint(elements_per_direction=2),
            DesignPoint(elements_per_direction=2, num_cus=2),
            DesignPoint(elements_per_direction=3),
            DesignPoint(elements_per_direction=2, block_size=4),
            DesignPoint(elements_per_direction=2, device="hbm"),
        )
    ]
    front = pareto_front(results)
    assert front
    keys = ("step_cycles", "lut", "dsp", "bram36")

    def dominates(a, b):
        le = all(getattr(a, k) <= getattr(b, k) for k in keys)
        lt = any(getattr(a, k) < getattr(b, k) for k in keys)
        return le and lt

    for member in front:
        assert not any(dominates(other, member) for other in results)
    for result in results:
        if result not in front:
            assert any(dominates(member, result) for member in front)


def test_front_preserves_input_order():
    results = [
        evaluate_closed_form(DesignPoint(elements_per_direction=2, num_cus=n))
        for n in (2, 1)
    ]
    front = pareto_front(results)
    positions = [results.index(r) for r in front]
    assert positions == sorted(positions)


def test_empty_and_invalid_inputs():
    assert pareto_front([]) == []
    result = evaluate_closed_form(DesignPoint())
    with pytest.raises(DSEError):
        pareto_front([result], objectives=("speed_of_light",))
    with pytest.raises(DSEError):
        pareto_front([result], objectives=())
    with pytest.raises(DSEError):
        pareto_indices(np.array([]))
    with pytest.raises(DSEError):
        pareto_indices(np.array([1.0, 2.0]))


@st.composite
def duplicated_matrices(draw):
    """Integer objective matrices of 1-700 rows, each a pick from a pool
    of 1-700 rows of small integers, so copies are the norm."""
    rng = np.random.default_rng(draw(st.integers(min_value=0)))
    columns = draw(st.integers(min_value=1, max_value=4))
    pool = rng.integers(
        0,
        draw(st.integers(min_value=1, max_value=10)),
        size=(draw(st.integers(min_value=1, max_value=700)), columns),
    )
    picks = rng.integers(
        0, len(pool), size=draw(st.integers(min_value=1, max_value=700))
    )
    return pool[picks].astype(float)


_RNG = np.random.default_rng(22)
#: Random draws seldom keep more distinct rows than one 256-row chunk
#: of the cull, so two fixed draws do: 700 rows over 10^4 values (680
#: distinct), and 700 picks from a pool of 300 rows (268 distinct).
_SPREAD = _RNG.integers(0, 10, size=(700, 4)).astype(float)
_HEAVY = _RNG.integers(0, 10, size=(300, 4))[
    _RNG.integers(0, 300, size=700)
].astype(float)
#: Signed, fractional objectives: the cull leans on ``np.unique``'s
#: lexicographic row order, which must hold below zero too.
_SIGNED = _RNG.normal(size=(600, 3)).round(1)


@given(values=duplicated_matrices())
@example(values=_SPREAD)
@example(values=_HEAVY)
@example(values=_SIGNED)
@settings(max_examples=150, deadline=None)
def test_matches_naive_domination(values):
    le_all = (values[None, :, :] <= values[:, None, :]).all(axis=2)
    lt_any = (values[None, :, :] < values[:, None, :]).any(axis=2)
    survivors = np.flatnonzero(~(le_all & lt_any).any(axis=1))
    assert pareto_indices(values).tolist() == survivors.tolist()
