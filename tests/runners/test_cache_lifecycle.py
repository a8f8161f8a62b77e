"""Age/size-based cache eviction (`cache purge --max-age-days/--max-size-mb`)."""

import hashlib
import json
import os
import sqlite3
import time

import pytest

from repro.runners.cache import CACHE_VERSION, ResultCache


def seed_entries(cache, n, size_bytes=200, age_step_days=1.0, now=None):
    """Write ``n`` valid entries with strictly increasing mtimes.

    Entry ``k`` is ``(n - 1 - k) * age_step_days`` days old, so entry 0
    is the oldest; each file is padded to roughly ``size_bytes``.
    """
    now = now if now is not None else time.time()
    keys = []
    for k in range(n):
        key = f"{k:02d}" + "ab" * 31
        payload = {
            "kind": "ideal",
            "metrics": {},
            "pad": "x" * max(0, size_bytes - 60),
        }
        cache.put(key, payload)
        age_days = (n - 1 - k) * age_step_days
        mtime = now - age_days * 86_400.0
        os.utime(cache._path(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestAgeEviction:
    def test_old_entries_go_young_stay(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 5, age_step_days=1.0, now=now)
        removed = cache.purge(max_age_days=2.5, now=now)
        assert removed == 2  # ages 4 and 3 days exceed 2.5
        assert not cache.has(keys[0]) and not cache.has(keys[1])
        assert all(cache.has(k) for k in keys[2:])

    def test_zero_days_evicts_everything_aged(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        seed_entries(cache, 3, age_step_days=1.0, now=now)
        removed = cache.purge(max_age_days=0.0, now=now)
        assert removed == 2  # the newest entry is exactly age 0: kept

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            ResultCache(tmp_path).purge(max_age_days=-1)


class TestSizeEviction:
    def test_oldest_evicted_first_until_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 4, size_bytes=300, now=now)
        sizes = [cache._path(k).stat().st_size for k in keys]
        budget_mb = (sizes[2] + sizes[3]) / (1024.0 * 1024.0)
        removed = cache.purge(max_size_mb=budget_mb, now=now)
        assert removed == 2
        assert not cache.has(keys[0]) and not cache.has(keys[1])
        assert cache.has(keys[2]) and cache.has(keys[3])

    def test_under_budget_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 3)
        assert cache.purge(max_size_mb=10.0) == 0
        assert cache.stats().n_entries == 3

    def test_zero_budget_clears_all(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 3)
        assert cache.purge(max_size_mb=0.0) == 3
        assert cache.stats().n_entries == 0

    def test_negative_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_size_mb"):
            ResultCache(tmp_path).purge(max_size_mb=-0.5)


class TestCombinedAndCompat:
    def test_age_then_size_compose(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 6, size_bytes=250, age_step_days=1.0, now=now)
        survivor_size = cache._path(keys[5]).stat().st_size
        removed = cache.purge(
            max_age_days=3.5,  # drops ages 5 and 4 (entries 0, 1)
            max_size_mb=2 * survivor_size / (1024.0 * 1024.0),
            now=now,
        )
        assert removed == 4
        assert [k for k in keys if cache.has(k)] == keys[4:]

    def test_no_criteria_purges_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 4)
        assert cache.purge() == 4
        assert cache.stats().n_entries == 0

    def test_purged_entries_read_as_misses_not_errors(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache.purge(max_size_mb=0.0)
        assert cache.get(keys[0]) is None

    def test_valid_entries_survive_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        keys = seed_entries(cache, 2, age_step_days=10.0, now=now)
        cache.purge(max_age_days=15.0, now=now)
        payload = cache.get(keys[1])
        assert payload is not None and payload["version"] == CACHE_VERSION


class TestQuarantine:
    def test_corrupt_entry_moved_aside_not_reread(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("{ torn mid-json")
        assert cache.get(key) is None
        assert not cache._path(key).exists()  # no eternal corrupt miss
        assert cache._path(key).with_suffix(".corrupt").exists()
        assert cache.quarantined == 1

    def test_wrong_shape_quarantined_version_mismatch_not(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache._path(keys[0]).write_text(json.dumps(["not", "a", "dict"]))
        old = json.loads(cache._path(keys[1]).read_text())
        old["version"] = CACHE_VERSION + 1
        cache._path(keys[1]).write_text(json.dumps(old))
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        # Damage is quarantined; a different-era entry is a plain miss.
        assert cache.quarantined == 1
        assert cache._path(keys[1]).exists()

    def test_stats_count_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("garbage")
        cache.get(key)
        assert cache.stats().n_quarantined == 1
        assert cache.stats().n_entries == 0

    def test_full_purge_clears_the_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = seed_entries(cache, 1)
        cache._path(key).write_text("garbage")
        cache.get(key)
        report = cache.purge()
        assert report.corrupt_swept == 1
        assert cache.stats().n_quarantined == 0

    def test_criteria_purge_keeps_the_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 2)
        cache._path(keys[0]).write_text("garbage")
        cache.get(keys[0])
        report = cache.purge(max_size_mb=10.0)
        assert report.corrupt_swept == 0
        assert cache.stats().n_quarantined == 1


class TestTmpSweep:
    def _orphan_tmp(self, cache, key, age_s, now, size=100):
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".12345.tmp")
        tmp.write_text("x" * size)
        os.utime(tmp, (now - age_s, now - age_s))
        return tmp

    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        stale = self._orphan_tmp(cache, "aa" * 32, 7200.0, now, size=150)
        fresh = self._orphan_tmp(cache, "bb" * 32, 10.0, now)
        report = cache.purge(max_size_mb=10.0, now=now)
        assert report.tmp_swept == 1
        assert report.tmp_bytes == 150
        assert not stale.exists() and fresh.exists()

    def test_tmp_age_threshold_is_overridable(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        tmp = self._orphan_tmp(cache, "aa" * 32, 30.0, now)
        assert cache.purge(max_size_mb=10.0, now=now, tmp_age_s=5.0).tmp_swept == 1
        assert not tmp.exists()

    def test_purge_report_is_int_compatible(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        report = cache.purge()
        assert report == 2 and report + 1 == 3
        assert f"{report}" == "2"  # formats as the count it replaces


class TestCliFlags:
    def test_purge_flags_reach_the_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        now = time.time()
        seed_entries(cache, 3, age_step_days=10.0, now=now)
        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-age-days", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "purged 1 cache entries" in out  # only the 20-day entry
        assert "older than 15 days" in out
        assert cache.stats().n_entries == 2

    def test_size_flag_output_mentions_budget(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-size-mb", "0",
        ])
        assert code == 0
        assert "shrunk to 0 MiB" in capsys.readouterr().out
        assert cache.stats().n_entries == 0

    def test_negative_flag_rejected(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-age-days", "-2",
        ])
        assert code == 2


class TestEvictOnInsert:
    """`ResultCache(max_size_mb=...)` applies the size purge at write time."""

    def test_under_budget_writes_keep_everything(self, tmp_path):
        cache = ResultCache(tmp_path, max_size_mb=1.0)
        keys = seed_entries(cache, 4, size_bytes=200)
        assert all(cache.has(k) for k in keys)

    def test_over_budget_write_evicts_oldest_first(self, tmp_path):
        # ~5 KiB budget, ~2 KiB entries: the 4th+ write must evict.
        budget_mb = 5.0 / 1024.0
        cache = ResultCache(tmp_path, max_size_mb=budget_mb)
        now = time.time()
        keys = seed_entries(cache, 3, size_bytes=2048, age_step_days=1.0, now=now)
        fresh_key = "ff" + "cd" * 31
        cache.put(fresh_key, {"kind": "ideal", "metrics": {}, "pad": "x" * 2000})
        assert cache.has(fresh_key)       # the just-written entry survives
        assert not cache.has(keys[0])     # the oldest paid for it
        total = sum(p.stat().st_size for p in cache.entry_paths())
        assert total <= budget_mb * 1024 * 1024

    def test_budget_tracked_incrementally_across_writes(self, tmp_path):
        budget_mb = 5.0 / 1024.0
        cache = ResultCache(tmp_path, max_size_mb=budget_mb)
        now = time.time()
        seed_entries(cache, 2, size_bytes=2048, age_step_days=1.0, now=now)
        for k in range(5):
            cache.put(
                f"e{k:01d}" + "ef" * 31,
                {"kind": "ideal", "metrics": {}, "pad": "x" * 2000},
            )
        total = sum(p.stat().st_size for p in cache.entry_paths())
        assert total <= budget_mb * 1024 * 1024

    def test_overwrites_track_the_delta_not_the_sum(self, tmp_path):
        """Re-putting an existing key must not inflate the byte total."""
        budget_mb = 5.0 / 1024.0
        cache = ResultCache(tmp_path, max_size_mb=budget_mb)
        keys = seed_entries(cache, 2, size_bytes=1500)
        hot_key = "aa" + "ba" * 31
        for _ in range(10):  # naive sum-tracking would cross the budget
            cache.put(
                hot_key, {"kind": "ideal", "metrics": {}, "pad": "x" * 1400}
            )
        # Three entries (~4.4 KiB) fit the 5 KiB budget: nothing evicted.
        assert all(cache.has(k) for k in keys)
        assert cache.has(hot_key)

    def test_no_budget_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = seed_entries(cache, 6, size_bytes=2048)
        assert all(cache.has(k) for k in keys)

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_size_mb"):
            ResultCache(tmp_path, max_size_mb=-1.0)

    def test_env_var_supplies_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.0048828125")  # 5 KiB
        cache = ResultCache(tmp_path)
        assert cache.max_size_mb == pytest.approx(5.0 / 1024.0)
        seed_entries(cache, 4, size_bytes=2048)
        total = sum(p.stat().st_size for p in cache.entry_paths())
        assert total <= 5 * 1024

    def test_explicit_budget_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        cache = ResultCache(tmp_path, max_size_mb=64.0)
        assert cache.max_size_mb == 64.0

    def test_unparsable_env_var_warns_and_disarms(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_MAX_MB"):
            cache = ResultCache(tmp_path)
        assert cache.max_size_mb is None

    def test_campaign_writes_respect_ambient_budget(self, tmp_path):
        """run_campaign builds its cache with the ambient budget armed."""
        from repro.runners import CampaignSpec, execution, run_campaign
        from repro.runners.campaign import clear_memo

        spec = CampaignSpec.build(
            kind="percolation",
            axes={"reliability": (0.8, 0.9)},
            fixed={"grid_side": 6, "runs": 2, "process": "bond"},
            seed_params=("grid_side", "reliability"),
        )
        clear_memo()
        with execution(
            cache_dir=str(tmp_path), cache_max_size_mb=64.0, use_cache=True
        ):
            run_campaign(spec)
        entries = list(ResultCache(tmp_path).entry_paths())
        assert entries  # the budgeted cache actually stored the points


class TestBudgetScanRegression:
    """Evict-on-insert must not re-walk the directory on every put."""

    def test_over_budget_puts_rescan_at_most_once(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = ResultCache._scan_bytes

        def counting(self):
            calls["n"] += 1
            return real(self)

        monkeypatch.setattr(ResultCache, "_scan_bytes", counting)
        cache = ResultCache(tmp_path, max_size_mb=1.0 / 1024.0)  # 1 KiB
        for k in range(30):  # nearly every put crosses the budget
            cache.put(
                f"s{k:02d}" + "ab" * 30,
                {"kind": "ideal", "metrics": {}, "pad": "x" * 400},
            )
        # One walk seeds the running total; every over-budget put after
        # that restores it from the purge's reclaimed-bytes report.
        assert calls["n"] <= 1

    def test_external_purge_reseeds_with_one_walk(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = ResultCache._scan_bytes

        def counting(self):
            calls["n"] += 1
            return real(self)

        monkeypatch.setattr(ResultCache, "_scan_bytes", counting)
        cache = ResultCache(tmp_path, max_size_mb=64.0)
        seed_entries(cache, 2)
        assert calls["n"] == 1
        cache.purge(max_age_days=999.0)  # invalidates the running total
        seed_entries(cache, 2)
        assert calls["n"] == 2  # exactly one corrective re-seed


def seed_journals(root, ages_days, now=None):
    """Write one journal per age (days), mtime-staggered like entries."""
    now = now if now is not None else time.time()
    journals = root / "journal"
    journals.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, age in enumerate(ages_days):
        path = journals / f"campaign-{index}.jsonl"
        path.write_text('{"key": "x", "flat": {}}\n')
        mtime = now - age * 86_400.0
        os.utime(path, (mtime, mtime))
        paths.append(path)
    return paths


class TestJournalLifecycle:
    """Orphaned campaign journals: visible in stats, swept by purge."""

    def test_stats_count_orphaned_journals(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        seed_journals(tmp_path, [0.0, 5.0])
        stats = cache.stats()
        assert stats.n_journals == 2
        assert stats.journal_bytes > 0

    def test_full_purge_sweeps_every_journal(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 2)
        paths = seed_journals(tmp_path, [0.0, 5.0])
        report = cache.purge()
        assert report.journals_swept == 2 and report.journal_bytes > 0
        assert not any(path.exists() for path in paths)

    def test_age_gated_purge_sweeps_only_old_journals(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        seed_entries(cache, 2, now=now)
        paths = seed_journals(tmp_path, [0.0, 5.0], now=now)
        report = cache.purge(max_age_days=2.0, now=now)
        assert report.journals_swept == 1
        assert paths[0].exists() and not paths[1].exists()

    def test_pure_size_purge_leaves_resume_state_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        seed_entries(cache, 3)
        paths = seed_journals(tmp_path, [10.0])
        report = cache.purge(max_size_mb=0.0)
        assert report.journals_swept == 0
        assert paths[0].exists()

    def test_cli_stats_report_journals(self, tmp_path, capsys):
        from repro.cli import main

        seed_entries(ResultCache(tmp_path), 1)
        seed_journals(tmp_path, [1.0])
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "1 orphaned campaign journals" in capsys.readouterr().out

    def test_cli_purge_sweeps_journals_by_age(self, tmp_path, capsys):
        from repro.cli import main

        now = time.time()
        seed_entries(ResultCache(tmp_path), 1, now=now)
        paths = seed_journals(tmp_path, [9.0], now=now)
        code = main([
            "cache", "purge", "--cache-dir", str(tmp_path),
            "--max-age-days", "5",
        ])
        assert code == 0
        assert "swept 1 orphaned campaign journals" in capsys.readouterr().out
        assert not paths[0].exists()


#: The row shape the content-addressed object store of earlier versions
#: wrote in place of an inline metrics payload.
LEGACY_MARKER = {"__object__": "0123456789abcdef" * 4}

#: Where an earlier version could leave a marker: a cache entry file, a
#: journal line replayed by ``--resume``, and a sharded-queue result row.
#: (The SQLite cache tier of earlier versions wrote every row through to
#: an entry file, so its markers are covered by the ``file`` surface.)
LEGACY_SURFACES = ["file", "journal", "queue"]


def legacy_spec():
    from repro.runners import CampaignSpec

    return CampaignSpec.build(
        kind="percolation",
        axes={"grid_side": (6, 8)},
        fixed={"reliability": 0.9, "runs": 3, "process": "bond"},
        seed_params=("grid_side", "reliability"),
    )


def plant_legacy_object(root, payload):
    """Write ``payload`` where the old store kept it; returns its marker."""
    text = json.dumps(payload, sort_keys=True)
    ref = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path = root / "objects" / ref[:2] / f"{ref}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return dict.fromkeys(LEGACY_MARKER, ref)


def float_bits(metrics):
    """``metrics`` with every value as its exact hex form (keeps -0.0)."""
    return {name: float(value).hex() for name, value in metrics.items()}


def awkward_metrics():
    """Past the old store's 2 KiB threshold, with floats JSON must keep."""
    values = [0.1 + 0.2, 1e-300, -0.0, 5e-324, 1 / 3, 2.0 ** 60]
    return {
        f"metric_{index:03d}": values[index % len(values)] * (index + 1)
        for index in range(200)
    }


@pytest.fixture
def fresh_runner_state():
    from repro.runners import clear_run_caches, context, faults

    previous = context.get_execution()
    clear_run_caches()
    yield
    clear_run_caches()
    # An inline worker_loop installs the queue's published execution
    # flags and marks this process as a pool worker; undo both so later
    # tests' crash faults raise instead of os._exit-ing pytest.
    context._config = previous
    faults._in_pool_worker = False


@pytest.mark.usefixtures("fresh_runner_state")
class TestLegacyObjectMarkers:
    """Marker payloads left by earlier versions recompute on first read."""

    @staticmethod
    def check_recompute(tmp_path, surface, with_object):
        from repro.runners import ShardedBackend, WorkQueue, run_campaign
        from repro.runners.backends import _build_leases
        from repro.runners.campaign import clear_memo
        from repro.runners.journal import JOURNAL_VERSION, CampaignJournal

        def store():
            return ResultCache(tmp_path)

        spec = legacy_spec()
        victim = spec.runs()[0]
        clear_memo()
        clean = run_campaign(spec, use_cache=False)
        clear_memo()
        run_campaign(spec, cache=store())
        inline = store().get(victim.key)["metrics"]

        marker = LEGACY_MARKER
        if with_object:
            # The object the marker names is intact on disk, as the old
            # store left it; readers still never consult ``objects/``.
            root = tmp_path / "q" if surface == "queue" else tmp_path
            held = [inline] if surface == "queue" else inline
            marker = plant_legacy_object(root, held)
        rerun = {}
        if surface == "file":
            path = ResultCache(tmp_path)._path(victim.key)
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["metrics"] = marker
            path.write_text(json.dumps(payload), encoding="utf-8")
        else:
            # The surface under test must be the only place the point
            # is stored, so drop its (inline) cache entry.
            ResultCache(tmp_path)._path(victim.key).unlink()
            if surface == "journal":
                journal = CampaignJournal.for_campaign(
                    tmp_path, spec.content_hash()
                )
                journal.path.parent.mkdir(parents=True, exist_ok=True)
                line = {
                    "v": JOURNAL_VERSION, "event": "result",
                    "key": victim.key, "kind": victim.kind,
                    "seed": victim.seed, "metrics": marker,
                }
                journal.path.write_text(
                    json.dumps(line) + "\n", encoding="utf-8"
                )
                assert journal.load().results == {victim.key: marker}
                rerun["resume"] = True
            else:
                queue = WorkQueue(tmp_path / "q")
                queue.enqueue(_build_leases([victim]))
                con = queue._connect()
                con.execute(
                    "UPDATE tasks SET status = 'done' WHERE key = ?",
                    (victim.key,),
                )
                con.execute(
                    "INSERT INTO results(key, flats, worker, completed) "
                    "VALUES (?, ?, 'legacy', 0)",
                    (victim.key, json.dumps(marker)),
                )
                con.commit()
                queue.close()
                rerun["backend"] = ShardedBackend(1, queue_dir=tmp_path / "q")

        clear_memo()
        result = run_campaign(spec, cache=store(), **rerun)
        assert result.computed == 1
        points = list(spec.points())
        assert [result.metrics(**point) for point in points] == [
            clean.metrics(**point) for point in points
        ]
        assert store().get(victim.key)["metrics"] == inline
        if surface == "queue":
            assert WorkQueue(tmp_path / "q").attempts_for([victim.key]) == {
                victim.key: 1
            }
        if with_object:
            # Left for the user to delete by hand, never swept or read.
            assert len(list(root.glob("objects/*/*.json"))) == 1

    @pytest.mark.parametrize("surface", LEGACY_SURFACES)
    def test_marker_payload_recomputes_and_rewrites_inline(
        self, tmp_path, surface
    ):
        self.check_recompute(tmp_path, surface, with_object=False)

    @pytest.mark.parametrize("surface", LEGACY_SURFACES)
    def test_marker_recomputes_even_with_its_object_on_disk(
        self, tmp_path, surface
    ):
        self.check_recompute(tmp_path, surface, with_object=True)

    def test_stats_and_purge_leave_legacy_objects_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "ideal", "metrics": {"x": 1.0}})
        plant_legacy_object(tmp_path, {"x": 1.0})
        stats = cache.stats()
        assert stats.n_entries == 1 and stats.n_stale == 0
        assert cache.purge() == 1
        assert cache.get("ab" * 32) is None
        assert len(list(tmp_path.glob("objects/*/*.json"))) == 1

    def test_queue_compact_leaves_legacy_objects_alone(self, tmp_path):
        from repro.runners import WorkQueue, worker_loop
        from repro.runners.backends import _build_leases

        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(_build_leases(legacy_spec().runs()))
        assert worker_loop(tmp_path / "q", worker_id="inline") == 2
        plant_legacy_object(tmp_path / "q", [{"x": 1.0}])
        report = queue.compact()
        assert report["tasks_dropped"] == 2
        assert report["results_dropped"] == 2
        assert len(list((tmp_path / "q").glob("objects/*/*.json"))) == 1

    def test_queue_meta_keys_of_other_versions_are_ignored(self, tmp_path):
        from repro.runners import FailurePolicy, WorkQueue, worker_loop
        from repro.runners.backends import _build_leases

        queue = WorkQueue(tmp_path / "q")
        queue.configure(FailurePolicy(), lease_block=2)
        con = queue._connect()
        con.execute(
            "INSERT INTO meta(name, value) VALUES ('retired_option', 'true')"
        )
        con.commit()
        assert queue.read_config()["lease_block"] == 2
        queue.enqueue(_build_leases(legacy_spec().runs()))
        assert worker_loop(tmp_path / "q", worker_id="inline") == 2
        assert queue.status_snapshot()["config"]["lease_block"] == 2


@pytest.mark.usefixtures("fresh_runner_state")
class TestInlinePayloads:
    """Every surface stores a metrics payload inline and bit for bit."""

    @pytest.mark.parametrize("surface", ["file", "journal", "queue"])
    def test_payload_is_stored_inline_and_reads_back_exactly(
        self, tmp_path, surface
    ):
        from repro.runners import WorkQueue
        from repro.runners.backends import _build_leases
        from repro.runners.journal import CampaignJournal

        metrics = awkward_metrics()
        key = "ab" * 32
        if surface == "file":
            cache = ResultCache(tmp_path)
            cache.put(key, {"kind": "k", "metrics": metrics})
            raw = json.loads(cache._path(key).read_text(encoding="utf-8"))
            stored = raw["metrics"]
            read = cache.get(key)["metrics"]
        elif surface == "journal":
            journal = CampaignJournal.for_campaign(tmp_path, "deadbeef")
            journal.append_result(key, "percolation", 7, metrics)
            journal.close()
            (line,) = journal.path.read_text(encoding="utf-8").splitlines()
            stored = json.loads(line)["metrics"]
            replay = CampaignJournal.for_campaign(tmp_path, "deadbeef").load()
            read = replay.results[key]
        else:
            queue = WorkQueue(tmp_path / "q")
            queue.enqueue(_build_leases(legacy_spec().runs()))
            ((key, _task, _attempt),) = queue.claim_block(
                "w1", lease_s=60.0, n=1, now=100.0
            )
            queue.complete_many([(key, [metrics])], "w1", now=101.0)
            (text,) = queue._connect().execute(
                "SELECT flats FROM results WHERE key = ?", (key,)
            ).fetchone()
            (stored,) = json.loads(text)
            ((_rowid, _key, (read,)),) = queue.fetch_results()
            queue.close()
        assert float_bits(stored) == float_bits(metrics)
        assert float_bits(read) == float_bits(metrics)
        assert not any(tmp_path.rglob("objects"))

    def test_sharded_workers_write_inline_result_rows(self, tmp_path):
        from repro.runners import WorkQueue, execution, run_campaign
        from repro.runners.campaign import clear_memo

        spec = legacy_spec()
        clear_memo()
        reference = run_campaign(spec, use_cache=False)
        clear_memo()
        with execution(
            backend="sharded", jobs=2, queue_dir=str(tmp_path / "q")
        ):
            result = run_campaign(spec, use_cache=False)
        clear_memo()
        points = list(spec.points())
        assert [result.metrics(**point) for point in points] == [
            reference.metrics(**point) for point in points
        ]
        rows = WorkQueue(tmp_path / "q").fetch_results()
        assert len(rows) == len(spec.runs())
        assert all(
            type(flats) is list and all(type(flat) is dict for flat in flats)
            for _rowid, _key, flats in rows
        )
        assert not any(tmp_path.rglob("objects"))


#: The tables the SQLite cache tier of earlier versions kept in
#: ``<cache>/cache.sqlite``, beside the entry files it wrote through to.
OLD_TIER_SCHEMA = """
CREATE TABLE entries(
    key      TEXT PRIMARY KEY,
    kind     TEXT,
    version  INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    nbytes   INTEGER NOT NULL,
    created  REAL NOT NULL
);
CREATE TABLE quarantine(
    key          TEXT PRIMARY KEY,
    payload      TEXT,
    quarantined  REAL NOT NULL
);
"""


def plant_old_tier_database(root):
    """Mirror every entry file into ``cache.sqlite`` as the old tier did.

    Adds the WAL side files a killed tier process could leave, and
    returns every ``cache.sqlite*`` file's bytes for later comparison.
    """
    rows = []
    for path in ResultCache(root).entry_paths():
        text = path.read_text(encoding="utf-8")
        record = json.loads(text)
        rows.append((
            path.stem, record["kind"], record["version"], text,
            len(text.encode("utf-8")), time.time(),
        ))
    con = sqlite3.connect(str(root / "cache.sqlite"))
    con.executescript(OLD_TIER_SCHEMA)
    con.executemany("INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?)", rows)
    con.commit()
    con.close()
    (root / "cache.sqlite-wal").write_bytes(b"left by a killed writer")
    (root / "cache.sqlite-shm").write_bytes(b"\0" * 64)
    return old_tier_files(root)


def old_tier_files(root):
    return {path.name: path.read_bytes() for path in root.glob("cache.sqlite*")}


def entry_files(root):
    return {
        path.name: path.read_bytes() for path in ResultCache(root).entry_paths()
    }


@pytest.mark.usefixtures("fresh_runner_state")
class TestOldSqliteTierDirectory:
    """A cache directory the SQLite tier of earlier versions wrote to.

    That tier wrote every row through to the entry files, so the file
    cache serves the directory warm; its ``cache.sqlite*`` files are
    inert leftovers that nothing reads, counts or deletes.
    """

    @staticmethod
    def warm_directory(root):
        from repro.runners import run_campaign
        from repro.runners.campaign import clear_memo

        spec = legacy_spec()
        clear_memo()
        cold = run_campaign(spec, cache=str(root))
        database = plant_old_tier_database(root)
        clear_memo()
        return spec, cold, database

    def test_warm_rerun_computes_nothing(self, tmp_path):
        from repro.runners import run_campaign

        spec, cold, database = self.warm_directory(tmp_path)
        entries = entry_files(tmp_path)
        warm = run_campaign(spec, cache=str(tmp_path))
        assert warm.computed == 0 and warm.reused == len(spec.runs())
        points = list(spec.points())
        assert [warm.metrics(**point) for point in points] == [
            cold.metrics(**point) for point in points
        ]
        assert entry_files(tmp_path) == entries
        assert old_tier_files(tmp_path) == database

    def test_rows_only_in_the_database_recompute(self, tmp_path):
        # Entries the old tier wrote with write-through off exist only
        # as database rows: they read as misses, recompute, and land as
        # the same entry file bytes the file cache writes for them.
        from repro.runners import run_campaign

        spec, _cold, database = self.warm_directory(tmp_path)
        victim = ResultCache(tmp_path)._path(spec.runs()[0].key)
        original = victim.read_bytes()
        victim.unlink()
        rerun = run_campaign(spec, cache=str(tmp_path))
        assert rerun.computed == 1
        assert victim.read_bytes() == original
        assert old_tier_files(tmp_path) == database

    def test_cli_stats_count_only_the_entry_files(self, tmp_path, capsys):
        from repro.cli import main

        spec, _cold, database = self.warm_directory(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        n_runs = len(spec.runs())
        assert f"entries: {n_runs} (" in out and ", 0 stale)" in out
        assert f"percolation  {n_runs}" in out
        assert old_tier_files(tmp_path) == database

    @pytest.mark.parametrize("criteria", ["full", "age"])
    def test_cli_purge_leaves_the_database_files_alone(
        self, tmp_path, capsys, criteria
    ):
        from repro.cli import main

        spec, _cold, database = self.warm_directory(tmp_path)
        argv = ["cache", "purge", "--cache-dir", str(tmp_path)]
        if criteria == "age":
            # Everything is past the age gate, the database files too.
            old = time.time() - 40 * 86_400.0
            for path in [
                *ResultCache(tmp_path).entry_paths(),
                *tmp_path.glob("cache.sqlite*"),
            ]:
                os.utime(path, (old, old))
            argv += ["--max-age-days", "30"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"purged {len(spec.runs())} cache entries" in out
        assert ResultCache(tmp_path).stats().n_entries == 0
        assert old_tier_files(tmp_path) == database
