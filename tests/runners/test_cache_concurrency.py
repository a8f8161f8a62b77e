"""The result cache under concurrency: writers racing a running purge.

Several processes share one cache directory (campaigns run side by
side, sharded-backend parents on different machines), and ``cache
purge`` may run while they write.  No write may be lost or torn, and
losing a race with the purge's empty-shard cleanup must never switch
the cache off for the rest of the process.
"""

import hashlib
import multiprocessing
import time
import warnings
from pathlib import Path

import pytest

from repro.runners.cache import ResultCache


def payload(value, kind="ideal"):
    return {"kind": kind, "metrics": {"value": float(value)}}


def spread_key(label):
    """A run-key-shaped key: hex, so keys land in many fresh shards."""
    return hashlib.sha256(label.encode("utf-8")).hexdigest()


def purge_after_mkdir(monkeypatch, shard, root, times):
    """Run a full purge right after ``shard`` is created, ``times`` times.

    That is the window between ``put``'s ``mkdir`` and its ``open``:
    the purge's shard cleanup removes the still-empty directory.
    """
    # A cache already in use: ``points/`` exists, so the shard's mkdir
    # is one call (no recursion into parents through the hook).
    (root / "points").mkdir(parents=True, exist_ok=True)
    real_mkdir = Path.mkdir
    fired = []

    def mkdir_then_purge(self, *args, **kwargs):
        real_mkdir(self, *args, **kwargs)
        if self == shard and len(fired) < times:
            fired.append(ResultCache(root).purge())
            assert not shard.exists()

    monkeypatch.setattr(Path, "mkdir", mkdir_then_purge)
    return fired


class TestPutRacingPurge:
    def test_purge_between_mkdir_and_open_keeps_the_cache_on(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        first, second = "ab" * 32, "cd" * 32
        fired = purge_after_mkdir(
            monkeypatch, cache._path(first).parent, tmp_path, times=1
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put(first, payload(1))
            cache.put(second, payload(2))
        assert len(fired) == 1
        assert [str(w.message) for w in caught] == []
        assert not cache._write_failed
        assert cache.get(first)["metrics"] == {"value": 1.0}
        assert cache.get(second)["metrics"] == {"value": 2.0}

    def test_losing_the_retry_too_drops_only_that_entry(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        first, second = "ab" * 32, "cd" * 32
        fired = purge_after_mkdir(
            monkeypatch, cache._path(first).parent, tmp_path, times=2
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put(first, payload(1))
            cache.put(second, payload(2))
        assert len(fired) == 2
        assert [str(w.message) for w in caught] == []
        assert not cache._write_failed
        assert cache.get(first) is None
        assert cache.get(second)["metrics"] == {"value": 2.0}
        cache.put(first, payload(3))  # the next attempt lands normally
        assert cache.get(first)["metrics"] == {"value": 3.0}

    def test_unwritable_directory_still_degrades_with_one_warning(
        self, tmp_path
    ):
        root = tmp_path / "not-a-directory"
        root.write_text("a file where the cache root should be")
        cache = ResultCache(root)
        with pytest.warns(RuntimeWarning, match="not writable") as caught:
            cache.put("ab" * 32, payload(1))
            cache.put("cd" * 32, payload(2))
        assert len(caught) == 1
        assert cache._write_failed
        assert cache.get("ab" * 32) is None


class TestBatchedReads:
    def test_get_many_matches_key_by_key_probes(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [spread_key(f"k{index}") for index in range(40)]
        for index, key in enumerate(keys):
            cache.put(key, payload(index))
        unknown = spread_key("never written")
        found = cache.get_many(keys + [unknown])
        assert found == {key: cache.get(key) for key in keys}
        assert unknown not in found and not cache.has(unknown)
        assert all(cache.has(key) and key in cache for key in keys)

    def test_get_many_quarantines_a_corrupt_entry_and_serves_the_rest(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        keys = [spread_key(f"k{index}") for index in range(4)]
        for index, key in enumerate(keys):
            cache.put(key, payload(index))
        cache._path(keys[0]).write_text("not json")
        found = cache.get_many(keys)
        assert set(found) == set(keys[1:])
        assert cache.quarantined == 1
        assert cache.stats().n_quarantined == 1


# -- concurrent-writer torture (module level: fork/spawn picklable) --------


def _expected_value(writer, batch, index):
    return float(writer * 10_000 + batch * 100 + index)


def _torture_keys(writer, n_batches, batch_size):
    return {
        spread_key(f"w{writer}-{batch}-{index}"): _expected_value(
            writer, batch, index
        )
        for batch in range(n_batches)
        for index in range(batch_size)
    }


def _torture_writer(root, writer, n_batches, batch_size):
    """Write batches and re-read everything written so far, verifying."""
    cache = ResultCache(root)
    written = {}
    for batch in range(n_batches):
        for index in range(batch_size):
            key = spread_key(f"w{writer}-{batch}-{index}")
            value = _expected_value(writer, batch, index)
            cache.put(key, payload(value))
            written[key] = value
        found = cache.get_many(list(written))
        if set(found) != set(written):
            raise SystemExit(11)  # lost write
        for key, stored in found.items():
            if stored["metrics"] != {"value": written[key]}:
                raise SystemExit(12)  # torn or crossed write
    if cache.quarantined or cache._write_failed:
        raise SystemExit(13)


def _torture_purger(root, n_purges):
    """Churn ``purge`` while the writers hammer away.

    The 30-day age gate matches nothing (every entry is seconds old), so
    each purge only walks the entries and removes the shards it finds
    empty — the very directories the writers are creating.  Any missing
    key afterwards is a *lost* write.
    """
    cache = ResultCache(root)
    for _ in range(n_purges):
        cache.purge(max_age_days=30.0)
        time.sleep(0.005)


class TestConcurrentWriters:
    def test_torture_writers_with_purge_running(self, tmp_path):
        n_writers, n_batches, batch_size = 3, 6, 20
        ctx = multiprocessing.get_context("spawn")
        processes = [
            ctx.Process(
                target=_torture_writer,
                args=(str(tmp_path), writer, n_batches, batch_size),
            )
            for writer in range(n_writers)
        ]
        processes.append(
            ctx.Process(target=_torture_purger, args=(str(tmp_path), 30))
        )
        for process in processes:
            process.start()
        for process in processes:
            process.join(120.0)
        assert [process.exitcode for process in processes] == [0] * len(processes)
        expected = {}
        for writer in range(n_writers):
            expected.update(_torture_keys(writer, n_batches, batch_size))
        cache = ResultCache(tmp_path)
        found = cache.get_many(list(expected))
        assert set(found) == set(expected)
        assert all(
            found[key]["metrics"] == {"value": value}
            for key, value in expected.items()
        )
        assert cache.quarantined == 0
        stats = cache.stats()
        assert stats.n_entries == len(expected) and stats.n_quarantined == 0
