"""Append-only campaign journal: what a killed invocation already did.

The disk cache makes *finished* campaigns cheap to repeat; the journal
makes *interrupted* ones cheap to resume.  While a campaign executes,
every completed run is appended — key, seed and flat metrics — to one
JSONL file keyed by the spec's content hash, flushed line by line, so a
SIGKILL forfeits at most the in-flight points.  ``run_campaign(resume=
True)`` replays the journal before consulting cache or backend and
simulates only the remainder; a campaign that finishes with zero
failures discards its journal (the cache now owns the results).

Failure records are journaled too, so a resumed invocation can report
what its predecessor gave up on.  Reading is tolerant: a torn final line
(the crash happened mid-append) is skipped, matching the cache's
"corruption is a miss" contract.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runners.failures import RunFailure

#: Bumped if the journal line layout changes; old lines then replay as
#: unknown events (skipped), never as wrong results.
JOURNAL_VERSION = 1


@dataclass
class JournalReplay:
    """What ``CampaignJournal.load`` recovered from disk."""

    #: Flat metrics dicts by run key (last write wins).
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Failure payloads in append order.
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Unparsable or unknown lines skipped (a torn tail is expected).
    skipped: int = 0


class CampaignJournal:
    """One campaign's append-only JSONL journal.

    Best-effort like the result cache: an unwritable journal degrades to
    no journaling (with one warning) rather than failing the campaign
    it is there to protect.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        self._write_failed = False

    @classmethod
    def for_campaign(
        cls, cache_root: Union[str, Path], spec_hash: str
    ) -> "CampaignJournal":
        """The default journal location beside the result cache."""
        return cls(Path(cache_root) / "journal" / f"{spec_hash}.jsonl")

    @property
    def exists(self) -> bool:
        return self.path.is_file()

    def append_result(
        self, key: str, kind: str, seed: int, metrics: Dict[str, Any]
    ) -> None:
        """Record one completed run (flat metrics, cache-payload form)."""
        self._append(
            {"event": "result", "key": key, "kind": kind, "seed": seed,
             "metrics": metrics}
        )

    def append_failure(self, failure: RunFailure) -> None:
        """Record one run that exhausted its retries."""
        self._append({"event": "failure", **failure.to_payload()})

    def _append(self, record: Dict[str, Any]) -> None:
        if self._write_failed:
            return
        line = json.dumps({"v": JOURNAL_VERSION, **record}, sort_keys=True)
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            # One write + flush per record: a kill tears at most the
            # final line, which load() skips.
            self._handle.write(line + "\n")
            self._handle.flush()
        except OSError as exc:
            self._write_failed = True
            warnings.warn(
                f"campaign journal at {self.path} is not writable ({exc}); "
                "continuing without crash recovery",
                RuntimeWarning,
                stacklevel=2,
            )

    def load(self) -> JournalReplay:
        """Replay the journal; corrupt or unknown lines are skipped."""
        replay = JournalReplay()
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return replay
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                replay.skipped += 1
                continue
            if (
                not isinstance(record, dict)
                or record.get("v") != JOURNAL_VERSION
            ):
                replay.skipped += 1
                continue
            event = record.get("event")
            if (
                event == "result"
                and isinstance(record.get("key"), str)
                and isinstance(record.get("metrics"), dict)
            ):
                replay.results[record["key"]] = record["metrics"]
            elif event == "failure" and isinstance(record.get("key"), str):
                replay.failures.append(record)
            else:
                replay.skipped += 1
        return replay

    def close(self) -> None:
        """Flush and release the append handle (journal file kept)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def discard(self) -> None:
        """Delete the journal (clean campaign completion)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignJournal({str(self.path)!r})"
