"""Shared SQLite cache tier: batched reads for campaign-scale key sets.

The JSON file cache pays one ``stat`` + ``open`` + parse per key, which
is fine for a figure's hundreds of points and ruinous for a
million-point campaign whose warm second run is *nothing but* cache
reads.  :class:`SQLiteCacheTier` keeps the same payloads (and the same
``CACHE_VERSION`` contract) in one SQLite database per cache root
(``cache.sqlite``, WAL mode), so the campaign scan's
:meth:`~SQLiteCacheTier.get_many` is a handful of batched ``SELECT``s
instead of a filesystem walk — and several writers (sharded-backend
parents on different machines sharing the cache directory) coexist via
SQLite's single-writer transaction protocol with busy-timeout retry.

The tier sits *behind* the file layer rather than replacing it:

* **migration** — a key missing from the database falls back to the
  JSON file layer and, on a hit, is copied in, so pointing
  ``--cache-tier sqlite`` at an existing cache directory warms the
  database incrementally (or all at once via :meth:`migrate_files`);
* **write-through** — every ``put`` also lands the ordinary JSON entry
  file (on by default), so the directory stays readable by the file
  tier, older checkouts, and plain ``ls``-based forensics.

Like the file layer, the tier is strictly a performance layer: corrupt
rows quarantine (into a ``quarantine`` table, visible in ``cache
stats``), version-mismatched rows read as misses, and an unusable
database degrades to the file layer with one warning rather than
failing the campaign.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.obs import get_recorder
from repro.runners.cache import (
    CACHE_VERSION,
    CacheStats,
    PurgeReport,
    ResultCache,
    default_max_size_mb,
)
from repro.runners.faults import cache_write_corrupted

#: Database file name inside the cache root.
DB_FILENAME = "cache.sqlite"

#: How long a writer waits on the database lock before SQLite gives up
#: (seconds); generous because campaign writers hold transactions for
#: microseconds and purges for milliseconds.
BUSY_TIMEOUT_S = 30.0

#: Keys per ``IN (...)`` batch — under the 999 bound-variable limit of
#: older SQLite builds.
_BATCH = 900

#: Extra sleep-and-retry schedule wrapped around write transactions, for
#: the rare lock timeout that outlives the busy handler.
_RETRY_DELAYS_S = (0.0, 0.05, 0.2, 0.8)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries(
    key      TEXT PRIMARY KEY,
    kind     TEXT,
    version  INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    nbytes   INTEGER NOT NULL,
    created  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine(
    key          TEXT PRIMARY KEY,
    payload      TEXT,
    quarantined  REAL NOT NULL
);
"""


def _chunks(keys: Sequence[str], size: int = _BATCH) -> Iterable[Sequence[str]]:
    for start in range(0, len(keys), size):
        yield keys[start:start + size]


class SQLiteCacheTier:
    """Campaign result cache backed by one SQLite database per root.

    Drop-in for :class:`~repro.runners.cache.ResultCache` everywhere the
    campaign layer is concerned (``get`` / ``put`` / ``get_many`` /
    ``put_many`` / ``has`` / ``stats`` / ``purge``), selected by the
    CLI's ``--cache-tier sqlite``.

    Parameters
    ----------
    root:
        Cache directory (shared with the file layer); default as for
        :class:`ResultCache`.
    max_size_mb:
        Evict-on-insert budget over the tier's stored payload bytes;
        evictions remove the mirrored JSON files too.
    write_through:
        Mirror every write into the JSON file layer (default on).
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        max_size_mb: Optional[float] = None,
        write_through: bool = True,
        busy_timeout_s: float = BUSY_TIMEOUT_S,
    ) -> None:
        # The file layer carries no budget of its own: the tier owns
        # eviction and removes mirrored files alongside evicted rows.
        self.files = ResultCache(root, max_size_mb=0.0 or None)
        self.files.max_size_mb = None
        self.root = self.files.root
        if max_size_mb is None:
            max_size_mb = default_max_size_mb()
        if max_size_mb is not None and max_size_mb < 0:
            raise ValueError(f"max_size_mb must be >= 0, got {max_size_mb}")
        self.max_size_mb = max_size_mb
        self.write_through = write_through
        self.busy_timeout_s = busy_timeout_s
        self.db_path = self.root / DB_FILENAME
        #: Corrupt rows this instance moved into the quarantine table.
        self.quarantined = 0
        self._con: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._degraded = False

    # -- connection --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """The process-local connection (re-opened after a fork)."""
        if self._con is not None and self._pid == os.getpid():
            return self._con
        self.root.mkdir(parents=True, exist_ok=True)
        con = sqlite3.connect(
            str(self.db_path),
            timeout=self.busy_timeout_s,
            check_same_thread=False,
            # Campaign scans re-issue the same handful of statements
            # thousands of times; a deeper statement cache skips the
            # re-prepare entirely.
            cached_statements=256,
        )
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        # Map the database instead of read()-ing it page by page: the
        # campaign scan's batched SELECTs then touch warm page cache
        # directly, with no per-page syscalls.
        con.execute("PRAGMA mmap_size=268435456")
        con.executescript(_SCHEMA)
        con.commit()
        self._con = con
        self._pid = os.getpid()
        return con

    def close(self) -> None:
        """Release the connection (tests; reopened lazily on next use)."""
        if self._con is not None and self._pid == os.getpid():
            try:
                self._con.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
        self._con = None
        self._pid = None

    def _degrade(self, exc: BaseException) -> None:
        if self._degraded:
            return
        self._degraded = True
        recorder = get_recorder()
        recorder.counter("cache.sqlite.degraded")
        recorder.event(
            "cache.degraded", tier="sqlite", error=type(exc).__name__
        )
        warnings.warn(
            f"sqlite cache tier at {self.db_path} is unusable ({exc}); "
            "continuing on the JSON file layer",
            RuntimeWarning,
            stacklevel=3,
        )

    def _write(self, operate: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run one write transaction with busy retry; None if degraded.

        ``operate`` runs inside a single ``BEGIN IMMEDIATE`` transaction
        — the tier's concurrent-writer contract: a batch of puts either
        lands whole or not at all, and readers never observe a torn
        batch.
        """
        if self._degraded:
            return None
        last: Optional[BaseException] = None
        for delay in _RETRY_DELAYS_S:
            if delay:
                time.sleep(delay)
            try:
                con = self._connect()
                con.execute("BEGIN IMMEDIATE")
                try:
                    outcome = operate(con)
                except BaseException:
                    con.rollback()
                    raise
                con.commit()
                return outcome
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" in message or "busy" in message:
                    last = exc
                    continue
                self._degrade(exc)
                return None
            except (sqlite3.Error, OSError) as exc:
                self._degrade(exc)
                return None
        self._degrade(last if last is not None else RuntimeError("lock retry"))
        return None

    def _read(self, operate: Callable[[sqlite3.Connection], Any]) -> Any:
        if self._degraded:
            return None
        try:
            return operate(self._connect())
        except (sqlite3.Error, OSError) as exc:
            self._degrade(exc)
            return None

    # -- payload plumbing --------------------------------------------------

    def _quarantine_rows(self, rows: Sequence[tuple]) -> None:
        """Move corrupt ``(key, payload)`` rows into the quarantine table."""
        if not rows:
            return

        def operate(con: sqlite3.Connection) -> int:
            now = time.time()
            con.executemany(
                "INSERT OR REPLACE INTO quarantine(key, payload, quarantined) "
                "VALUES (?, ?, ?)",
                [(key, text, now) for key, text in rows],
            )
            con.executemany(
                "DELETE FROM entries WHERE key = ?",
                [(key,) for key, _ in rows],
            )
            return len(rows)

        if self._write(operate) or self._degraded:
            self.quarantined += len(rows)
            recorder = get_recorder()
            recorder.counter("cache.sqlite.quarantined", len(rows))
            recorder.event(
                "cache.quarantine", tier="sqlite", entries=len(rows)
            )

    def _rows_for(
        self, items: Mapping[str, Dict[str, Any]]
    ) -> List[tuple]:
        rows = []
        now = time.time()
        for key, payload in items.items():
            record = dict(payload)
            record["version"] = CACHE_VERSION
            text = json.dumps(record, sort_keys=True)
            if cache_write_corrupted(key):
                # Injected torn write (same draw as the file layer):
                # exercises quarantine-on-read through the tier.
                text = text[: max(1, len(text) // 2)]
            rows.append(
                (
                    key,
                    str(record.get("kind", "?")),
                    CACHE_VERSION,
                    text,
                    len(text.encode("utf-8")),
                    now,
                )
            )
        return rows

    # -- the cache protocol ------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload for ``key`` from the tier, file-layer fallback.

        A database hit whose payload is corrupt quarantines the row; a
        version-mismatched row reads as a plain miss.  A database miss
        consults the JSON file layer and migrates any hit in.
        """
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Payloads for every hit among ``keys`` — the batched read path.

        When the key set covers most of the table (a campaign's warm
        second run asks for essentially every stored row) one sequential
        scan beats ``len(keys)`` B-tree probes; smaller requests go
        through chunked ``SELECT ... IN (...)`` lookups instead.  Either
        way, a file-layer probe runs only for the keys the database does
        not hold (each file hit is migrated in so the next campaign
        finds it batched).  Version-mismatched rows are filtered in SQL
        — a different-era row is a plain miss, not damage.
        """
        keys = list(keys)
        found: Dict[str, Dict[str, Any]] = {}
        corrupt: List[tuple] = []

        def harvest(rows: Iterable[tuple]) -> None:
            loads = json.loads
            for key, text in rows:
                try:
                    payload = loads(text)
                except ValueError:
                    corrupt.append((key, text))
                    continue
                if type(payload) is dict and "metrics" in payload:
                    found[key] = payload
                else:
                    corrupt.append((key, text))

        def operate(con: sqlite3.Connection) -> None:
            # MAX(rowid) is an O(log n) upper bound on the row count
            # (rowids grow monotonically, so deletions and REPLACE churn
            # only overestimate — which safely favours the probe path).
            top = con.execute("SELECT MAX(rowid) FROM entries").fetchone()
            approx_rows = (top[0] if top else None) or 0
            if approx_rows < 2 * len(keys):
                wanted = set(keys)
                harvest(
                    row
                    for row in con.execute(
                        "SELECT key, payload FROM entries WHERE version = ?",
                        (CACHE_VERSION,),
                    )
                    if row[0] in wanted
                )
                return
            for chunk in _chunks(keys):
                marks = ",".join("?" for _ in chunk)
                harvest(
                    con.execute(
                        f"SELECT key, payload FROM entries "
                        f"WHERE version = ? AND key IN ({marks})",
                        (CACHE_VERSION, *chunk),
                    ).fetchall()
                )

        self._read(operate)
        self._quarantine_rows(corrupt)
        recorder = get_recorder()
        if found:
            recorder.counter("cache.sqlite.hit", len(found))
        if len(found) == len(keys):
            return found
        missing = [key for key in keys if key not in found]
        if missing:
            migrated = self.files.get_many(missing)
            if migrated:
                found.update(migrated)
                recorder.counter("cache.sqlite.migrated", len(migrated))
                self._write(
                    lambda con: con.executemany(
                        "INSERT OR REPLACE INTO entries"
                        "(key, kind, version, payload, nbytes, created) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        self._rows_for(migrated),
                    )
                )
        if len(found) < len(keys):
            recorder.counter("cache.sqlite.miss", len(keys) - len(found))
        return found

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store one payload (stamped with the cache version)."""
        self.put_many({key: payload})

    def put_many(self, items: Mapping[str, Dict[str, Any]]) -> None:
        """Store every ``key -> payload`` in one write transaction.

        Concurrent-writer safe: the batch lands atomically under
        ``BEGIN IMMEDIATE`` (busy-timeout retried), write-through
        mirrors each entry into the JSON file layer, and the size budget
        (if armed) is enforced once per batch rather than per key.
        """
        if not items:
            return
        get_recorder().counter("cache.sqlite.put", len(items))
        rows = self._rows_for(items)
        self._write(
            lambda con: con.executemany(
                "INSERT OR REPLACE INTO entries"
                "(key, kind, version, payload, nbytes, created) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )
        )
        if self.write_through or self._degraded:
            self.files.put_many(items)
        if self.max_size_mb is not None:
            self._enforce_budget()

    def has(self, key: str) -> bool:
        """Cheap existence probe against the database, file fallback."""
        def operate(con: sqlite3.Connection) -> bool:
            row = con.execute(
                "SELECT 1 FROM entries WHERE key = ? LIMIT 1", (key,)
            ).fetchone()
            return row is not None

        if self._read(operate):
            return True
        return self.files.has(key)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # -- migration ---------------------------------------------------------

    def migrate_files(self) -> int:
        """Bulk-import every readable JSON file entry; returns the count.

        Incremental migration happens on every miss anyway; this is the
        one-shot warm-up for pointing the tier at a long-lived file
        cache before a big campaign.
        """
        imported: Dict[str, Dict[str, Any]] = {}
        count = 0
        for path in self.files.entry_paths():
            key = path.stem
            payload = self.files.get(key)
            if payload is None:
                continue
            imported[key] = payload
            count += 1
            if len(imported) >= _BATCH:
                batch = dict(imported)
                imported.clear()
                self._write(
                    lambda con, batch=batch: con.executemany(
                        "INSERT OR REPLACE INTO entries"
                        "(key, kind, version, payload, nbytes, created) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        self._rows_for(batch),
                    )
                )
        if imported:
            self._write(
                lambda con: con.executemany(
                    "INSERT OR REPLACE INTO entries"
                    "(key, kind, version, payload, nbytes, created) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    self._rows_for(imported),
                )
            )
        return count

    # -- lifecycle ---------------------------------------------------------

    def _enforce_budget(self) -> None:
        def operate(con: sqlite3.Connection) -> Optional[int]:
            row = con.execute("SELECT SUM(nbytes) FROM entries").fetchone()
            return row[0] if row else None

        total = self._read(operate)
        if total is None or total <= self.max_size_mb * 1024.0 * 1024.0:
            return
        self.purge(max_size_mb=self.max_size_mb)

    def stats(self) -> CacheStats:
        """Aggregate stats over the database (plus shared journals)."""
        def operate(con: sqlite3.Connection):
            n_entries, total_bytes = con.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
            ).fetchone()
            stale = con.execute(
                "SELECT COUNT(*) FROM entries WHERE version != ?",
                (CACHE_VERSION,),
            ).fetchone()[0]
            by_kind = con.execute(
                "SELECT kind, COUNT(*) FROM entries WHERE version = ? "
                "GROUP BY kind ORDER BY kind",
                (CACHE_VERSION,),
            ).fetchall()
            quarantined = con.execute(
                "SELECT COUNT(*) FROM quarantine"
            ).fetchone()[0]
            return n_entries, total_bytes, stale, by_kind, quarantined

        outcome = self._read(operate)
        if outcome is None:
            return self.files.stats()
        n_entries, total_bytes, stale, by_kind, quarantined = outcome
        file_stats = self.files.stats()
        return CacheStats(
            root=str(self.root),
            n_entries=n_entries,
            total_bytes=total_bytes,
            n_stale=stale,
            by_kind=tuple((str(kind), count) for kind, count in by_kind),
            n_quarantined=quarantined,
            n_journals=file_stats.n_journals,
            journal_bytes=file_stats.journal_bytes,
        )

    def purge(
        self,
        max_age_days: Optional[float] = None,
        max_size_mb: Optional[float] = None,
        now: Optional[float] = None,
        tmp_age_s: Optional[float] = None,
    ) -> PurgeReport:
        """Delete stored rows (same criteria as the file layer's purge).

        Evicted keys have their mirrored JSON files removed too, then
        the file layer's own purge runs with the same criteria — so
        never-migrated file entries age out identically and the shared
        sweeps (stale tmp files, quarantine on full purge, journals) run
        once.  The returned count is database rows; file-side removals
        of unmirrored entries ride in the file report's sweeps.
        """
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(f"max_age_days must be >= 0, got {max_age_days}")
        if max_size_mb is not None and max_size_mb < 0:
            raise ValueError(f"max_size_mb must be >= 0, got {max_size_mb}")
        reference = now if now is not None else time.time()
        victims: List[str] = []
        entry_bytes = 0

        def operate(con: sqlite3.Connection) -> int:
            nonlocal entry_bytes
            chosen: List[tuple] = []
            if max_age_days is None and max_size_mb is None:
                chosen = con.execute(
                    "SELECT key, nbytes FROM entries"
                ).fetchall()
                con.execute("DELETE FROM quarantine")
            else:
                if max_age_days is not None:
                    cutoff = reference - max_age_days * 86_400.0
                    chosen.extend(
                        con.execute(
                            "SELECT key, nbytes FROM entries WHERE created < ?",
                            (cutoff,),
                        ).fetchall()
                    )
                if max_size_mb is not None:
                    budget = max_size_mb * 1024.0 * 1024.0
                    already = {key for key, _ in chosen}
                    total = con.execute(
                        "SELECT COALESCE(SUM(nbytes), 0) FROM entries"
                    ).fetchone()[0]
                    total -= sum(size for key, size in chosen)
                    if total > budget:
                        for key, size in con.execute(
                            "SELECT key, nbytes FROM entries "
                            "ORDER BY created, key"
                        ):
                            if total <= budget:
                                break
                            if key in already:
                                continue
                            chosen.append((key, size))
                            total -= size
            for key, size in chosen:
                victims.append(key)
                entry_bytes += size
            con.executemany(
                "DELETE FROM entries WHERE key = ?",
                [(key,) for key in victims],
            )
            return len(victims)

        removed = self._write(operate) or 0
        if self.write_through:
            # Drop the evicted keys' mirror files so both layers agree;
            # a concurrent writer re-adding one simply re-mirrors it.
            for key in victims:
                try:
                    self.files._path(key).unlink()
                except OSError:
                    continue
        file_report = self.files.purge(
            max_age_days=max_age_days,
            max_size_mb=max_size_mb,
            now=now,
            tmp_age_s=tmp_age_s,
        )
        return PurgeReport(
            removed,
            tmp_swept=file_report.tmp_swept,
            tmp_bytes=file_report.tmp_bytes,
            corrupt_swept=file_report.corrupt_swept,
            entry_bytes=entry_bytes,
            journals_swept=file_report.journals_swept,
            journal_bytes=file_report.journal_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteCacheTier(root={str(self.root)!r})"
