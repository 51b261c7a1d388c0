"""Campaign checkpoint journal: resume a killed sweep where it died.

The content-addressed :class:`~repro.dse.cache.ResultCache` already
records a campaign's progress: a pool batch is persisted as one segment
file the moment its worker prices it, so a segment on disk is a
finished batch and a resumed campaign re-prices none of its points.
What the cache cannot record is which points were **quarantined** as
failures (a failure is deliberately never cached — a crashed worker may
price the same point fine after a respawn on the next run). The journal
fills that gap: an append-only JSONL file next to the segments, one
event per line, flushed line-by-line so a SIGKILL loses at most the line
in flight.

Events (each a one-line JSON object with an ``"event"`` tag):

``begin``
    Opens a run; carries the campaign fingerprint
    (:meth:`~repro.dse.campaign.CampaignSpec.fingerprint`) so
    ``resume=True`` refuses a journal written by a different sweep.
``failure``
    A point was quarantined; carries the point spec, tier, and error,
    so the resumed campaign's casualty list matches the killed one's.

Loading is tolerant by construction: a truncated final line (the
SIGKILL case) or trailing garbage is ignored, and everything before it
is honored. A fingerprint mismatch raises
:class:`~repro.errors.CheckpointError` — resuming someone else's
progress would be silent corruption.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CheckpointError
from .campaign import DesignPoint

#: Journal filename inside the cache directory, keyed by campaign
#: fingerprint so concurrent campaigns sharing one cache directory
#: journal independently.
_JOURNAL_TEMPLATE = "journal-{fingerprint}.jsonl"


def journal_path(directory: str | Path, campaign_fingerprint: str) -> Path:
    """Where the journal of one campaign lives inside a cache directory."""
    return Path(directory) / _JOURNAL_TEMPLATE.format(
        fingerprint=campaign_fingerprint[:32]
    )


@dataclass
class JournalState:
    """Everything a tolerant :func:`CampaignJournal.load` recovered."""

    #: Campaign fingerprint of the ``begin`` event ("" for no journal).
    fingerprint: str = ""
    #: Quarantined points: ``(tier, index) -> (DesignPoint, error)``.
    failures: dict = field(default_factory=dict)

    @property
    def exists(self) -> bool:
        return bool(self.fingerprint)


class CampaignJournal:
    """Append-only JSONL journal of one campaign run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None

    # -- writing -------------------------------------------------------------

    def _record(self, event: str, **payload) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        line = json.dumps({"event": event, **payload}, sort_keys=True)
        self._handle.write(line + "\n")
        # Flush per line: a kill -9 loses at most the event in flight,
        # and the tolerant loader shrugs off the torn tail.
        self._handle.flush()

    def begin(self, campaign_fingerprint: str) -> None:
        self._record("begin", fingerprint=campaign_fingerprint)

    def failure(
        self, tier: str, index: int, point: DesignPoint, error: str
    ) -> None:
        self._record(
            "failure",
            tier=tier,
            index=index,
            point=point.spec(),
            error=error,
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the journal (a fresh, non-resumed run must
        not inherit a stale one)."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # -- loading -------------------------------------------------------------

    def load(self, expected_fingerprint: str | None = None) -> JournalState:
        """Recover journaled progress, tolerating a torn tail.

        Raises :class:`~repro.errors.CheckpointError` when the journal
        belongs to a different campaign than ``expected_fingerprint``.
        """
        state = JournalState()
        try:
            with open(self.path, "r") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return state
        except OSError as exc:
            raise CheckpointError(
                f"unreadable campaign journal {self.path}: {exc}"
            ) from None
        for line in lines:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                # The torn tail of a killed writer (or garbage): every
                # complete line before it still counts.
                continue
            if not isinstance(event, dict):
                continue
            tag = event.get("event")
            if tag == "begin":
                state.fingerprint = event.get("fingerprint", "")
            elif tag == "failure":
                try:
                    point = DesignPoint(**event["point"])
                except Exception:  # noqa: BLE001 - skip unusable lines
                    continue
                state.failures[(event["tier"], event["index"])] = (
                    point,
                    event.get("error", "journaled failure"),
                )
        if (
            expected_fingerprint is not None
            and state.exists
            and state.fingerprint != expected_fingerprint
        ):
            raise CheckpointError(
                f"campaign journal {self.path.name} was written by a "
                "different campaign (fingerprint mismatch); refusing to "
                "resume from it"
            )
        return state
