"""Tests for the ResultCache size bound: LRU pruning and the CLI.

PR 1 gave the cache atomic writes and content addressing; this pins the
new eviction layer — ``max_bytes`` on the constructor, recency refresh
on hits, :meth:`ResultCache.prune`, and the
``python -m repro.runtime.cache`` entry point a long-lived service uses
to keep its disk footprint bounded.
"""

import os
import time

import pytest

from repro.runtime.cache import DEFAULT_PRUNE_MAX_BYTES, ResultCache, main


def _fill(cache, n, size=200):
    """Write *n* entries of roughly *size* payload bytes, oldest first.

    Backdates mtimes one second apart so LRU order is deterministic
    without sleeping.
    """
    for i in range(n):
        cache.put(f"key{i:02d}", {"i": i, "blob": "x" * size})
        ts = time.time() - (n - i)
        os.utime(cache.path_for(f"key{i:02d}"), (ts, ts))


class TestSizeAccounting:
    def test_total_bytes_matches_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        expected = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        assert cache.total_bytes() == expected > 0

    def test_entries_sorted_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        mtimes = [mtime for _, mtime, _ in cache.entries()]
        assert mtimes == sorted(mtimes)


class TestLruPrune:
    def test_prune_removes_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 5)
        keep_bytes = cache.total_bytes() - 1  # force dropping one entry
        removed = cache.prune(max_bytes=keep_bytes)
        assert removed == 1
        assert cache.get("key00") is None  # oldest gone
        assert cache.get("key04") is not None  # newest kept

    def test_get_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 4)
        assert cache.get("key00") is not None  # touch the oldest
        removed = cache.prune(max_bytes=cache.total_bytes() - 1)
        assert removed == 1
        assert cache.get("key00") is not None  # survived: recently used
        assert cache.get("key01") is None  # next-oldest evicted instead

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        assert cache.prune(max_bytes=0) == 3
        assert len(cache) == 0

    def test_prune_without_cap_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        assert cache.prune() == 0
        assert len(cache) == 3

    def test_bounded_put_keeps_cap(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=600)
        for i in range(20):
            cache.put(f"k{i}", {"i": i, "blob": "y" * 100})
        assert cache.total_bytes() <= 600
        assert len(cache) >= 1
        assert cache.get("k19") is not None  # newest always survives

    def test_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=-1)


#: One entry's payload; with equal-length keys every entry has one size.
PAYLOAD = {"blob": "y" * 100}


class TestRunningTotal:
    """A capped cache lists its directory when it opens and when a put
    crosses the cap, never on the puts in between."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        real = ResultCache.entries

        def counted(self):
            calls.append(self.root)
            return real(self)

        monkeypatch.setattr(ResultCache, "entries", counted)
        return calls

    @pytest.fixture()
    def size(self, tmp_path):
        """On-disk bytes of one ``PAYLOAD`` entry with a 3-char key."""
        return ResultCache(tmp_path / "probe").put(
            "k00", PAYLOAD).stat().st_size

    def test_puts_under_the_cap_scan_once(self, tmp_path, scans):
        cache = ResultCache(tmp_path, max_bytes=1 << 20)
        for i in range(50):
            cache.put(f"k{i:02d}", PAYLOAD)
        assert scans == [tmp_path]  # the opening scan only
        assert cache._tracked_bytes == cache.total_bytes()

    def test_crossing_prunes_to_low_water_and_fires_site(self, tmp_path,
                                                         size):
        from repro.runtime.cache import LOW_WATER_FRACTION
        from repro.testkit.chaos import (ChaosController, FaultPlan,
                                         FaultSpec)

        cap = 10 * size
        cache = ResultCache(tmp_path / "c", max_bytes=cap)
        plan = FaultPlan.generate(
            0, [FaultSpec("cache.prune", "sleep", 1.0, param=0.0)], 10)
        with ChaosController(plan) as controller:
            for i in range(10):  # exactly at the cap: no prune yet
                cache.put(f"k{i:02d}", PAYLOAD)
                ts = time.time() - (100 - i)
                os.utime(cache.path_for(f"k{i:02d}"), (ts, ts))
            assert controller.fired() == []
            assert len(cache) == 10
            cache.put("k10", PAYLOAD)
            fired = [entry["site"] for entry in controller.fired()]
        assert fired == ["cache.prune"]
        assert cache.total_bytes() == 9 * size <= LOW_WATER_FRACTION * cap
        assert cache.get("k00") is None and cache.get("k01") is None
        assert cache.get("k10") is not None  # the newest survives
        assert cache._tracked_bytes == 9 * size

    def test_other_writers_counted_at_the_next_scan(self, tmp_path, size,
                                                    scans):
        root = tmp_path / "c"
        first = ResultCache(root, max_bytes=10 * size)
        other = ResultCache(root)  # e.g. another service process
        for i in range(6):
            other.put(f"b{i:02d}", PAYLOAD)
        for i in range(10):  # under the cap by the first cache's count
            first.put(f"a{i:02d}", PAYLOAD)
        assert len(scans) == 1  # 16 entries on disk, not seen yet
        first.put("a10", PAYLOAD)  # its own count crosses: scan
        assert len(scans) == 2
        assert first._tracked_bytes == 9 * size  # the other's included
        # Counting the other writer's bytes brings the next scan two
        # puts away, not ten.
        first.put("a11", PAYLOAD)
        assert len(scans) == 2
        first.put("a12", PAYLOAD)
        assert len(scans) == 3


class TestCacheCli:
    def test_stats(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        assert main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out

    def test_prune_flag(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, 4)
        assert main(["--dir", str(tmp_path), "--prune",
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 4" in out
        assert len(cache) == 0

    def test_prune_default_cap_is_generous(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        assert DEFAULT_PRUNE_MAX_BYTES == 1 << 30
        assert main(["--dir", str(tmp_path), "--prune"]) == 0
        assert len(cache) == 2  # far under 1 GiB: nothing removed

    def test_clear_flag(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        assert main(["--dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 3" in capsys.readouterr().out
        assert len(cache) == 0

    def test_rejects_negative_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--dir", str(tmp_path), "--prune", "--max-bytes", "-5"])


class TestCorruptEntries:
    """A rotten on-disk entry is a *counted* miss, never a crash.

    Pins the corruption taxonomy of :meth:`ResultCache.get`: undecodable
    bytes / non-dict entry / non-dict payload are counted in
    ``cache_corrupt_entries_total`` and the file is dropped so the
    recompute's put() starts clean; an absent entry or a schema-version
    mismatch stays a plain, uncounted miss.
    """

    @pytest.fixture()
    def registry(self):
        from repro.obs.registry import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        yield fresh
        set_registry(previous)

    @staticmethod
    def _corrupt_count(registry):
        return registry.counter("cache_corrupt_entries_total").value()

    def test_bit_flip_is_counted_miss_and_heals(self, tmp_path, registry):
        cache = ResultCache(tmp_path)
        path = cache.put("key", {"answer": 42})
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF  # flip the opening brace: undecodable JSON
        path.write_bytes(bytes(raw))

        assert cache.get("key") is None
        assert self._corrupt_count(registry) == 1
        assert not path.exists()  # dropped, not left to rot
        # The recompute's put()/get() round-trips on the cleaned slot.
        cache.put("key", {"answer": 42})
        assert cache.get("key") == {"answer": 42}
        assert self._corrupt_count(registry) == 1  # healed: no new count

    def test_truncated_entry_is_counted_miss(self, tmp_path, registry):
        cache = ResultCache(tmp_path)
        path = cache.put("key", {"blob": "x" * 256})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get("key") is None
        assert self._corrupt_count(registry) == 1
        assert not path.exists()

    def test_non_dict_entry_is_counted_miss(self, tmp_path, registry):
        cache = ResultCache(tmp_path)
        path = cache.path_for("key")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        assert cache.get("key") is None
        assert self._corrupt_count(registry) == 1

    def test_non_dict_payload_is_counted_miss(self, tmp_path, registry):
        import json

        from repro.runtime.cache import CACHE_SCHEMA_VERSION

        cache = ResultCache(tmp_path)
        path = cache.path_for("key")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"cache_schema": CACHE_SCHEMA_VERSION,
                                    "key": "key", "payload": 5}))
        assert cache.get("key") is None
        assert self._corrupt_count(registry) == 1

    def test_absent_entry_is_plain_miss(self, tmp_path, registry):
        cache = ResultCache(tmp_path)
        assert cache.get("never-written") is None
        assert self._corrupt_count(registry) == 0

    def test_schema_mismatch_is_plain_uncounted_miss(self, tmp_path,
                                                     registry):
        import json

        cache = ResultCache(tmp_path)
        path = cache.path_for("key")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"cache_schema": -1, "key": "key",
                                    "payload": {"a": 1}}))
        assert cache.get("key") is None
        assert self._corrupt_count(registry) == 0
        assert path.exists()  # stale versions are not "corrupt"

    def test_chaos_corrupt_injection_end_to_end(self, tmp_path, registry):
        """The cache.entry chaos site exercises the same taxonomy."""
        from repro.testkit.chaos import (ChaosController, FaultPlan,
                                         FaultSpec)

        cache = ResultCache(tmp_path)
        cache.put("key", {"answer": 42})
        plan = FaultPlan.generate(
            0, [FaultSpec("cache.entry", "corrupt", 1.0, max_fires=1)], 10)
        with ChaosController(plan):
            assert cache.get("key") is None  # corrupted mid-read
            assert cache.get("key") is None  # slot already dropped
        assert self._corrupt_count(registry) == 1
        cache.put("key", {"answer": 42})
        assert cache.get("key") == {"answer": 42}
