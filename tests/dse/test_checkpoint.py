"""Checkpoint-journal and kill-then-resume tests.

The acceptance bar: a campaign SIGKILLed mid-sweep resumes from its
checkpoint with 100% cache hits on every completed point — zero
re-pricing — and journaled quarantines are restored, not re-failed.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.dse import (
    CampaignJournal,
    CampaignSpec,
    DesignPoint,
    ResultCache,
    RetryPolicy,
    journal_path,
    run_campaign,
)
from repro.errors import CheckpointError, DSEError

BASE = DesignPoint(num_steps=10)
SPEC = CampaignSpec(
    name="checkpointed",
    axes=[("block_size", (1, 2, 4, 8)), ("num_cus", (1, 2))],
    base=BASE,
)
RETRY = RetryPolicy(max_retries=2, batch_timeout=10.0, backoff_base=0.01)


# -- journal unit behavior ---------------------------------------------------


def test_journal_roundtrip(tmp_path):
    journal = CampaignJournal(tmp_path / "j.jsonl")
    journal.begin("fp-abc")
    journal.failure("closed-form", 5, BASE, "worker died")
    journal.failure("exact", 0, BASE, "evaluation raised")
    journal.close()
    state = journal.load("fp-abc")
    assert state.exists
    assert state.fingerprint == "fp-abc"
    assert set(state.failures) == {("closed-form", 5), ("exact", 0)}
    point, error = state.failures[("closed-form", 5)]
    assert point == BASE and error == "worker died"


def test_journal_tolerates_torn_tail(tmp_path):
    """A SIGKILL mid-write leaves a truncated final line; every complete
    line before it must still load."""
    path = tmp_path / "j.jsonl"
    journal = CampaignJournal(path)
    journal.begin("fp")
    journal.failure("closed-form", 0, BASE, "worker died")
    journal.close()
    with open(path, "a") as handle:
        handle.write('{"event": "failure", "tier": "closed-fo')  # torn
    state = CampaignJournal(path).load("fp")
    assert state.fingerprint == "fp"
    assert list(state.failures) == [("closed-form", 0)]


def test_journal_missing_file_is_empty_state(tmp_path):
    state = CampaignJournal(tmp_path / "missing.jsonl").load()
    assert not state.exists and not state.failures


def test_journal_fingerprint_mismatch_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = CampaignJournal(path)
    journal.begin("fp-of-some-other-campaign")
    journal.close()
    with pytest.raises(CheckpointError, match="different campaign"):
        CampaignJournal(path).load("fp-of-this-one")


def test_campaign_fingerprint_stable_and_spec_sensitive():
    assert SPEC.fingerprint() == SPEC.fingerprint()
    other = CampaignSpec(
        name="checkpointed",
        axes=[("block_size", (1, 2, 4, 8)), ("num_cus", (1, 4))],
        base=BASE,
    )
    assert other.fingerprint() != SPEC.fingerprint()


def test_resume_requires_disk_cache():
    with pytest.raises(DSEError, match="disk-backed cache"):
        run_campaign(SPEC, resume=True)
    with pytest.raises(DSEError, match="disk-backed cache"):
        run_campaign(SPEC, resume=True, cache=ResultCache())


# -- kill-then-resume --------------------------------------------------------


def _killed_campaign(cache_dir: str, crash_after: int) -> None:
    """Child process: run the campaign with a parent-side crash fault
    after ``crash_after`` completed batches — ``os._exit``, the
    SIGKILL-equivalent (no cleanup, no exception handling)."""
    from repro.testing import FaultPlan, FaultSpec, install_faults

    install_faults(
        FaultPlan(
            FaultSpec(
                site="dse.batch", kind="crash", at=(crash_after,),
                exit_code=17,
            )
        )
    )
    run_campaign(
        SPEC,
        workers=1,
        cache=ResultCache(cache_dir),
        highest_tier="closed-form",
        chunk_size=1,
        retry=RETRY,
    )


def test_sigkilled_campaign_resumes_with_pure_cache_hits(tmp_path):
    """Kill the campaign dead after 4 completed batches; the resumed run
    serves every completed point from the cache (zero re-pricing) and
    finishes with results identical to a never-killed run."""
    crash_after = 4
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_killed_campaign, args=(str(tmp_path), crash_after)
    )
    child.start()
    child.join(120)
    assert child.exitcode == 17, "the campaign must actually die"

    # Records, not files: a segment holds a whole batch.
    completed = len(ResultCache(tmp_path))
    assert completed >= crash_after, "completed batches must be cached"
    jpath = journal_path(tmp_path, SPEC.fingerprint())
    assert jpath.exists(), "the journal must survive the kill"

    points, _ = SPEC.expand()
    cache = ResultCache(tmp_path)
    result = run_campaign(
        SPEC,
        workers=1,
        cache=cache,
        highest_tier="closed-form",
        chunk_size=1,
        resume=True,
        retry=RETRY,
    )
    assert result.resumed
    # 100% hits on completed batches: every cached point served, none
    # re-priced.
    assert cache.stats.hits == completed
    assert cache.stats.misses == len(points) - completed
    assert sum(1 for r in result.results if r.from_cache) == completed
    assert not result.failures

    clean = run_campaign(
        SPEC, workers=1, highest_tier="closed-form", chunk_size=1,
        retry=RETRY,
    )
    strip = ("from_cache",)
    as_dicts = lambda rs: [  # noqa: E731 - local shorthand
        {k: v for k, v in r.to_dict().items() if k not in strip}
        for r in rs
    ]
    assert as_dicts(result.results) == as_dicts(clean.results)


def test_resume_of_completed_campaign_is_pure_replay(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_campaign(
        SPEC, cache=cache, highest_tier="closed-form", retry=RETRY
    )
    again = ResultCache(tmp_path)
    result = run_campaign(
        SPEC, cache=again, highest_tier="closed-form", resume=True,
        retry=RETRY,
    )
    assert result.resumed
    assert again.stats.misses == 0
    assert again.stats.hits == len(first.results)
    assert all(r.from_cache for r in result.results)


def test_resume_restores_journaled_quarantines_without_refailing(tmp_path):
    """A quarantined point is journaled, not cached; the resumed run
    restores the casualty from the journal instead of re-pricing or
    re-failing it."""
    from repro.testing import FaultSpec, injected_faults

    bad = 3
    cache = ResultCache(tmp_path)
    with injected_faults(
        FaultSpec(site="dse.point", kind="error", at=(bad,), times=0)
    ):
        first = run_campaign(
            SPEC,
            workers=2,
            cache=cache,
            highest_tier="closed-form",
            chunk_size=2,
            retry=RETRY,
        )
    assert len(first.failures) == 1

    fresh = ResultCache(tmp_path)
    result = run_campaign(
        SPEC,
        cache=fresh,
        highest_tier="closed-form",
        chunk_size=2,
        resume=True,
        retry=RETRY,
    )
    assert result.resumed
    assert fresh.stats.misses == 0, "nothing re-priced, nothing re-failed"
    casualty = result.results[bad]
    assert casualty.status == "failed"
    assert "InjectedFault" in casualty.error


def test_fresh_run_discards_stale_journal(tmp_path):
    """resume=False must not inherit a previous run's journal: the old
    file (and its quarantines) is discarded and a new begin event
    written."""
    from repro.testing import FaultSpec, injected_faults

    cache = ResultCache(tmp_path)
    with injected_faults(
        FaultSpec(site="dse.point", kind="error", at=(0,), times=0)
    ):
        run_campaign(
            SPEC, cache=cache, highest_tier="closed-form", retry=RETRY
        )
    jpath = journal_path(tmp_path, SPEC.fingerprint())
    before = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert [e["event"] for e in before] == ["begin", "failure"]
    run_campaign(
        SPEC,
        cache=ResultCache(tmp_path),
        highest_tier="closed-form",
        retry=RETRY,
    )
    after = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert [e["event"] for e in after] == ["begin"]
