"""Tests for the content-addressed result cache and its keys."""

import json

import pytest

from repro.runner import (
    ExperimentSetup,
    ResultCache,
    RunRequest,
    cache_key,
    canonical_json,
    code_fingerprint,
    execute_request,
    freeze,
)

FAST = ExperimentSetup(duration_h=0.2)


@pytest.fixture(scope="module")
def sample_result():
    return execute_request(RunRequest("SCFirst", "TS", setup=FAST))


class TestKeys:
    def test_key_is_hex_sha256(self):
        key = cache_key(RunRequest("SCFirst", "TS", setup=FAST))
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_same_request_same_key(self):
        a = cache_key(RunRequest("SCFirst", "TS", setup=FAST))
        b = cache_key(RunRequest("SCFirst", "TS",
                                 setup=ExperimentSetup(duration_h=0.2)))
        assert a == b

    def test_any_field_changes_key(self):
        base = RunRequest("SCFirst", "TS", setup=FAST)
        variants = [
            RunRequest("BaOnly", "TS", setup=FAST),
            RunRequest("SCFirst", "PR", setup=FAST),
            RunRequest("SCFirst", "TS",
                       setup=ExperimentSetup(duration_h=0.2, seed=2)),
            RunRequest("SCFirst", "TS", setup=FAST, renewable=True),
            RunRequest("SCFirst", "TS", setup=FAST,
                       policy_sc_fraction=0.4),
        ]
        keys = {cache_key(v) for v in variants}
        assert cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_freeze_tags_dataclasses(self):
        frozen = freeze(FAST)
        assert frozen["__dataclass__"] == "ExperimentSetup"
        assert frozen["duration_h"] == 0.2

    def test_canonical_json_is_deterministic(self):
        request = RunRequest("HEB-D", "PR", setup=FAST, renewable=True)
        assert canonical_json(request) == canonical_json(request)
        # Canonical form must be parseable JSON with sorted keys.
        payload = json.loads(canonical_json(request))
        assert payload["__dataclass__"] == "RunRequest"

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_put_get_round_trip(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, sample_result)
        assert key in cache
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == sample_result.to_dict()

    def test_sharded_layout(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, sample_result)
        assert (tmp_path / "cd" / f"{key}.json").is_file()

    def test_corrupt_entry_reads_as_miss(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, sample_result)
        (tmp_path / "ef" / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"x"', "true"])
    def test_non_object_entry_reads_as_miss(self, tmp_path, sample_result,
                                            text):
        cache = ResultCache(tmp_path)
        key = "ee" + "5" * 62
        cache.put(key, sample_result)
        (tmp_path / "ee" / f"{key}.json").write_text(text)
        assert cache.get(key) is None

    @pytest.mark.parametrize("raw", [
        b"[" * 100_000 + b"]" * 100_000,   # deeper than the parser nests
        b'{"format": 1, "scheme": "\xff"}',  # not UTF-8
    ], ids=["deeply-nested", "non-utf8"])
    def test_unparseable_entry_reads_as_miss(self, tmp_path, sample_result,
                                             raw):
        cache = ResultCache(tmp_path)
        key = "ed" + "6" * 62
        cache.put(key, sample_result)
        (tmp_path / "ed" / f"{key}.json").write_bytes(raw)
        assert cache.get(key) is None

    def test_wrong_format_version_reads_as_miss(self, tmp_path,
                                                sample_result):
        cache = ResultCache(tmp_path)
        key = "0a" + "3" * 62
        cache.put(key, sample_result)
        path = tmp_path / "0a" / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_clear_and_stats(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02x}" + "4" * 62, sample_result)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert len(cache) == 3
        assert cache.clear() == 3
        assert cache.stats().entries == 0
