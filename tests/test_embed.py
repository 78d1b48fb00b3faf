from __future__ import annotations

import json
import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeway import embed
from causeway.embed import (
    EmbedderSpec,
    EmbedError,
    MockEmbedder,
    RemoteEmbedder,
    VectorCache,
    make_embedder,
)
from helpers import cache_rows, cosine, mock_embed_reference, set_cache_values


class TestMockEmbedder:
    def test_deterministic_across_instances(self):
        a = MockEmbedder(dim=64, seed=3).embed_texts(["heavy rain fell"])[0]
        b = MockEmbedder(dim=64, seed=3).embed_texts(["heavy rain fell"])[0]
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = MockEmbedder(dim=64, seed=3).embed_texts(["heavy rain fell"])[0]
        b = MockEmbedder(dim=64, seed=4).embed_texts(["heavy rain fell"])[0]
        assert not np.allclose(a, b)

    def test_unit_norm(self):
        embedder = MockEmbedder(dim=48, seed=0)
        for text in ["a", "ab", "abc", "the dam failed", "x" * 500]:
            vec = embedder.embed_texts([text])[0]
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_batch_equals_individual(self):
        embedder = MockEmbedder(dim=32, seed=1)
        texts = ["one", "two", "three"]
        batch = embedder.embed_texts(texts)
        for text, vec in zip(texts, batch):
            np.testing.assert_array_equal(embedder.embed_texts([text])[0], vec)

    def test_different_texts_differ(self):
        embedder = MockEmbedder(dim=64, seed=0)
        a, b = embedder.embed_texts(["wage dispute at the port", "flower festival downtown"])
        assert cosine(a, b) < 1.0 - 1e-6

    def test_shared_trigrams_raise_similarity(self):
        embedder = MockEmbedder(dim=256, seed=0)
        near_a, near_b, far = embedder.embed_texts(
            [
                "dockworkers strike at the port over wages",
                "dockworkers at the port strike over wage cuts",
                "quantum chemistry exam schedule announced",
            ]
        )
        assert cosine(near_a, near_b) > cosine(near_a, far)

    def test_empty_text_supported(self):
        embedder = MockEmbedder(dim=16, seed=0)
        vec = embedder.embed_texts([""])[0]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_array_equal(vec, embedder.embed_texts([""])[0])

    def test_dim_respected(self):
        assert MockEmbedder(dim=17, seed=0).embed_texts(["x"])[0].shape == (17,)

    def test_input_type_does_not_change_mock(self):
        embedder = MockEmbedder(dim=16, seed=0)
        a = embedder.embed_texts(["t"], input_type="query")[0]
        b = embedder.embed_texts(["t"], input_type="document")[0]
        np.testing.assert_array_equal(a, b)

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=3),
                st.text(alphabet="ab é水\n", max_size=40),
                st.text(min_size=20, max_size=200),
            ),
            max_size=6,
        ),
        st.sampled_from([1, 2, 3, 16, 64]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_bucket_reference_exactly(self, texts, dim, seed):
        embedder = MockEmbedder(dim=dim, seed=seed)
        want = [mock_embed_reference(text, dim, seed) for text in texts]
        for _ in range(2):  # the second round reads the warm memos
            got = embedder.embed_texts(texts)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestVectorCache:
    def test_round_trip(self, tmp_path):
        vec = np.array([0.0, 1.0, -2.5, 1e-300, np.nextafter(1.0, 2.0)])
        with VectorCache(tmp_path) as cache:
            cache.put("model-x", ["some text"], "query", [vec])
        with VectorCache(tmp_path) as cache:
            cache.load("model-x", ["some text"], "query")
            got = cache.get("model-x", "some text", "query")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, vec)
        assert list(tmp_path.iterdir()) == [tmp_path / "vectors.sqlite"]
        assert list(cache_rows(tmp_path).values()) == [vec.astype("<f8").tobytes()]

    def test_miss_returns_none(self, tmp_path):
        with VectorCache(tmp_path) as cache:
            cache.load("m", ["absent"], "query")
            assert cache.get("m", "absent", "query") is None

    def test_keyed_by_model_and_input_type(self, tmp_path):
        with VectorCache(tmp_path) as cache:
            cache.put("m1", ["t"], "query", [np.ones(2)])
            cache.load("m2", ["t"], "query")
            assert cache.get("m2", "t", "query") is None
            cache.load("m1", ["t"], "document")
            assert cache.get("m1", "t", "document") is None
            cache.load("m1", ["t"], "query")
            np.testing.assert_array_equal(cache.get("m1", "t", "query"), np.ones(2))

    def test_load_reads_more_keys_than_one_statement_holds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "_SQL_VARIABLES", 3)
        texts = [str(i) for i in range(7)]
        with VectorCache(tmp_path) as cache:
            cache.put("m", texts, None, [np.full(2, float(i)) for i in range(len(texts))])
            cache.load("m", texts, None)
            got = [cache.get("m", text, None) for text in texts]
        assert [v.tolist() for v in got] == [[float(i)] * 2 for i in range(len(texts))]

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        with VectorCache(tmp_path) as cache:
            cache.put("m", ["t"], "query", [np.ones(2)])
        for value in (b"\x00" * 7, b"", "text", 7):
            set_cache_values(tmp_path, value)
            caplog.clear()
            with VectorCache(tmp_path) as cache, caplog.at_level(logging.WARNING, logger="causeway.embed"):
                cache.load("m", ["t"], "query")
                assert cache.get("m", "t", "query") is None
            assert caplog.text.count("discarding unreadable cache entry") == 1

    def test_same_key_from_two_threads(self, fake_server, tmp_path, caplog):
        # four embedders, each in its own thread, fill one cache with
        # overlapping texts at once; every put of a text another thread is
        # also putting must succeed
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"])))
        spec = EmbedderSpec(kind="remote", dim=4, endpoint=fake_server.url + "/embed", model="m",
                            batch_size=2, cache_dir=str(tmp_path))
        texts = ["x" * n for n in range(1, 25)]
        shares = [texts[i * 6 : i * 6 + 12] for i in range(4)]  # each overlaps the next
        start = threading.Barrier(len(shares))
        errors: list[Exception] = []

        def embed_share(share: list[str]) -> None:
            embedder = RemoteEmbedder(spec, sleep=lambda s: None)
            try:
                start.wait(timeout=10)
                embedder.embed_texts(share)
            except Exception as err:  # surfaced in the main thread
                errors.append(err)

        threads = [threading.Thread(target=embed_share, args=(share,)) for share in shares]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger="causeway.embed"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert caplog.text == ""
        fake_server.requests.clear()
        out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(texts)
        assert fake_server.requests == []
        assert [v.tolist() for v in out] == _vectors_payload(texts)["vectors"]
        assert len(cache_rows(tmp_path)) == len(texts)


def _vectors_payload(texts, dim=4):
    return {"vectors": [[float(len(t) + i) for i in range(dim)] for t in texts]}


class TestRemoteEmbedder:
    def _spec(self, url, **overrides):
        params = dict(
            kind="remote",
            dim=4,
            endpoint=url + "/embed",
            model="embed-test",
            batch_size=2,
            max_retries=3,
            backoff_base=0.01,
        )
        params.update(overrides)
        return EmbedderSpec(**params)

    def test_round_trip_and_batching(self, fake_server):
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        embedder = RemoteEmbedder(self._spec(fake_server.url), sleep=lambda s: None)
        out = embedder.embed_texts(["a", "bb", "ccc"], input_type="document")
        assert len(out) == 3
        assert [len(v) for v in out] == [4, 4, 4]
        # batch_size=2 splits three texts into two requests
        assert [len(r["body"]["texts"]) for r in fake_server.requests] == [2, 1]
        assert fake_server.requests[0]["body"]["model"] == "embed-test"
        assert fake_server.requests[0]["body"]["input_type"] == "document"

    def test_input_type_omitted_when_not_configured(self, fake_server):
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        embedder = RemoteEmbedder(self._spec(fake_server.url), sleep=lambda s: None)
        embedder.embed_texts(["a"])
        assert "input_type" not in fake_server.requests[0]["body"]

    def test_auth_header_from_env(self, fake_server, monkeypatch):
        monkeypatch.setenv("TEST_EMBED_KEY", "sk-123")
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        spec = self._spec(fake_server.url, auth_env="TEST_EMBED_KEY")
        RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["a"])
        assert fake_server.requests[0]["headers"].get("Authorization") == "Bearer sk-123"

    def test_retries_then_succeeds(self, fake_server):
        state = {"calls": 0}

        def responder(path, body, headers):
            state["calls"] += 1
            if state["calls"] == 1:
                return 500, {"error": "boom"}
            return 200, _vectors_payload(body["texts"])

        fake_server.set_responder(responder)
        sleeps: list[float] = []
        embedder = RemoteEmbedder(self._spec(fake_server.url), sleep=sleeps.append)
        out = embedder.embed_texts(["a"])
        assert len(out) == 1
        assert state["calls"] == 2
        assert len(sleeps) == 1

    def test_gives_up_after_max_retries(self, fake_server):
        fake_server.set_responder(lambda path, body, headers: (500, {"error": "down"}))
        embedder = RemoteEmbedder(
            self._spec(fake_server.url, max_retries=2), sleep=lambda s: None
        )
        with pytest.raises(EmbedError) as err:
            embedder.embed_texts(["a"])
        assert err.value.attempts == 2
        assert len(fake_server.requests) == 2

    def test_backoff_doubles(self, fake_server):
        fake_server.set_responder(lambda path, body, headers: (500, {}))
        sleeps: list[float] = []
        embedder = RemoteEmbedder(
            self._spec(fake_server.url, max_retries=3, backoff_base=0.5),
            sleep=sleeps.append,
        )
        with pytest.raises(EmbedError):
            embedder.embed_texts(["a"])
        assert sleeps == [0.5, 1.0]

    def test_dimension_mismatch_raises(self, fake_server):
        fake_server.set_responder(
            lambda path, body, headers: (200, {"vectors": [[1.0, 2.0]]})
        )
        embedder = RemoteEmbedder(self._spec(fake_server.url, dim=4), sleep=lambda s: None)
        with pytest.raises(EmbedError, match="dimension"):
            embedder.embed_texts(["a"])

    def test_cache_prevents_second_request(self, fake_server, tmp_path):
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        first = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        n_after_first = len(fake_server.requests)
        second = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert len(fake_server.requests) == n_after_first
        np.testing.assert_array_equal(first[0], second[0])

    def test_partial_cache_only_fetches_missing(self, fake_server, tmp_path):
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["aa"])
        fake_server.requests.clear()
        RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["aa", "bbb"])
        sent = [t for r in fake_server.requests for t in r["body"]["texts"]]
        assert sent == ["bbb"]

    def test_repeated_text_is_requested_once(self, fake_server, tmp_path):
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"]))
        )
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["a", "bb", "a"])
        # batch_size=2 would split three texts into two requests
        assert [r["body"]["texts"] for r in fake_server.requests] == [["a", "bb"]]
        np.testing.assert_array_equal(out[0], out[2])
        assert not np.array_equal(out[0], out[1])
        assert len(cache_rows(tmp_path)) == 2  # one row per distinct text


    def test_cached_vector_of_another_dim_is_a_miss(self, fake_server, tmp_path, caplog):
        dim = {"now": 4}
        fake_server.set_responder(
            lambda path, body, headers: (200, _vectors_payload(body["texts"], dim["now"]))
        )

        def embed(d: int) -> np.ndarray:
            dim["now"] = d
            spec = self._spec(fake_server.url, dim=d, cache_dir=str(tmp_path))
            return RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])[0]

        first = embed(4)
        fake_server.requests.clear()
        with caplog.at_level(logging.WARNING, logger="causeway.embed"):
            out = embed(8)
        assert out.shape == (8,)
        assert [r["body"]["texts"] for r in fake_server.requests] == [["hello"]]
        assert "configured dim" not in caplog.text
        # each dim keeps its own entry in the shared directory
        np.testing.assert_array_equal(embed(4), first)
        np.testing.assert_array_equal(embed(8), out)
        assert len(fake_server.requests) == 1
        assert len(cache_rows(tmp_path)) == 2

    def test_cached_vector_of_another_endpoint_is_a_miss(self, fake_server, tmp_path):
        # each endpoint answers with its own vectors
        fake_server.set_responder(
            lambda path, body, headers: (200, {"vectors": [[len(t), len(path), 0.0, 1.0] for t in body["texts"]]})
        )

        def embed(path: str) -> np.ndarray:
            # the same model name at either endpoint
            spec = self._spec(fake_server.url, endpoint=fake_server.url + path, cache_dir=str(tmp_path))
            return RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])[0]

        first_a, first_b = embed("/embed"), embed("/v2/embed")
        assert not np.array_equal(first_a, first_b)
        assert [r["path"] for r in fake_server.requests] == ["/embed", "/v2/embed"]
        np.testing.assert_array_equal(embed("/embed"), first_a)
        np.testing.assert_array_equal(embed("/v2/embed"), first_b)
        assert len(fake_server.requests) == 2
        assert len(cache_rows(tmp_path)) == 2

    def test_cached_entry_of_the_wrong_shape_is_fetched_again(self, fake_server, tmp_path, caplog):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"], 8)))
        spec = self._spec(fake_server.url, dim=8, cache_dir=str(tmp_path))
        with VectorCache(tmp_path, spec.endpoint, 8) as cache:
            cache.put(spec.model, ["hello"], None, [np.ones(4)])
        with caplog.at_level(logging.WARNING, logger="causeway.embed"):
            out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert out[0].shape == (8,)
        assert "configured dim is 8" in caplog.text
        # the refetched vector replaced the damaged entry
        again = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert len(fake_server.requests) == 1
        np.testing.assert_array_equal(again[0], out[0])

    @pytest.mark.parametrize(
        "value", [b"\x00" * 7, b"", "text", 7], ids=["7-bytes", "empty", "text", "integer"]
    )
    def test_unreadable_value_is_fetched_again(self, fake_server, tmp_path, caplog, value):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"])))
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        want = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])[0]
        set_cache_values(tmp_path, value)
        fake_server.requests.clear()
        with caplog.at_level(logging.WARNING, logger="causeway.embed"):
            out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert caplog.text.count("discarding unreadable cache entry") == 1
        assert [r["body"]["texts"] for r in fake_server.requests] == [["hello"]]
        np.testing.assert_array_equal(out[0], want)
        fake_server.requests.clear()
        again = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert fake_server.requests == []
        np.testing.assert_array_equal(again[0], want)

    def test_json_entries_of_older_versions_are_misses(self, fake_server, tmp_path):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"])))
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        texts = ["a", "bb", "ccc"]
        # the per-text layouts of older versions: <sha256 of the key>.npy or .json
        old = {}
        for text, suffix in zip(texts, [".npy", ".json", ".npy"]):
            path = tmp_path / (VectorCache(tmp_path, spec.endpoint, spec.dim)._key(spec.model, text, None).hex() + suffix)
            if suffix == ".npy":
                with open(path, "wb") as fh:
                    np.save(fh, np.full(spec.dim, 9.0), allow_pickle=False)
            else:
                path.write_text(json.dumps({"vector": [9.0] * spec.dim}), encoding="utf-8")
            old[path] = path.read_bytes()
        out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(texts)
        assert [t for r in fake_server.requests for t in r["body"]["texts"]] == texts
        assert [v.tolist() for v in out] == _vectors_payload(texts)["vectors"]
        assert len(cache_rows(tmp_path)) == 3
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".npy", ".json")} == old

    def test_unusable_database_is_one_warning_and_an_uncached_run(self, fake_server, tmp_path, caplog):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"])))
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        db = tmp_path / "vectors.sqlite"
        db.write_bytes(b"not a database" * 100)
        texts = ["a", "bb", "ccc"]
        for _ in range(2):
            caplog.clear()
            fake_server.requests.clear()
            with caplog.at_level(logging.WARNING, logger="causeway.embed"):
                out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(texts)
            assert [v.tolist() for v in out] == _vectors_payload(texts)["vectors"]
            assert [r["body"]["texts"] for r in fake_server.requests] == [["a", "bb"], ["ccc"]]
            assert len(caplog.records) == 1
            assert "vector cache" in caplog.text and "is unusable" in caplog.text
        assert db.read_bytes() == b"not a database" * 100

    @pytest.mark.parametrize("entry", [None, float("nan"), float("inf")], ids=["null", "nan", "infinity"])
    def test_non_finite_vector_raises_and_caches_nothing_of_its_batch(self, fake_server, tmp_path, entry):
        def responder(path, body, headers):
            vectors = _vectors_payload(body["texts"])["vectors"]
            if "bad" in body["texts"]:
                vectors[body["texts"].index("bad")][0] = entry
            return 200, {"vectors": vectors}

        fake_server.set_responder(responder)
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        embedder = RemoteEmbedder(spec, sleep=lambda s: None)
        with pytest.raises(EmbedError, match="embedding of text 3 has a non-finite entry"):
            embedder.embed_texts(["a", "bb", "ccc", "bad"])
        # the first batch was cached, nothing of the second
        fake_server.requests.clear()
        embedder.embed_texts(["a", "bb", "ccc"])
        assert [r["body"]["texts"] for r in fake_server.requests] == [["ccc"]]

    def test_vector_of_non_numbers_raises(self, fake_server):
        fake_server.set_responder(lambda path, body, headers: (200, {"vectors": [["x", 1, 2, 3]]}))
        embedder = RemoteEmbedder(self._spec(fake_server.url), sleep=lambda s: None)
        with pytest.raises(EmbedError, match="embedding of text 0 is not a list of numbers"):
            embedder.embed_texts(["a"])

    @pytest.mark.parametrize("vectors", [5, None, {"a": [1.0] * 4}])
    def test_vectors_not_a_list_is_a_failed_attempt(self, fake_server, vectors):
        fake_server.set_responder(lambda path, body, headers: (200, {"vectors": vectors}))
        embedder = RemoteEmbedder(self._spec(fake_server.url, max_retries=2), sleep=lambda s: None)
        with pytest.raises(EmbedError, match="after 2 attempts: vectors is a JSON .*, not a list") as err:
            embedder.embed_texts(["a"])
        assert err.value.attempts == 2
        assert len(fake_server.requests) == 2

    def test_missing_vector_raises_instead_of_shifting(self, fake_server, monkeypatch):
        embedder = RemoteEmbedder(self._spec(fake_server.url), sleep=lambda s: None)
        # a transport that drops the last vector of a batch without an error
        monkeypatch.setattr(embedder, "_request", lambda batch, input_type: [[1.0] * 4] * (len(batch) - 1))
        with pytest.raises(EmbedError, match="1 of 2"):
            embedder.embed_texts(["a", "bb"])


class TestMakeEmbedder:
    def test_mock_dispatch(self):
        embedder = make_embedder(EmbedderSpec(kind="mock", dim=8, seed=5))
        assert isinstance(embedder, MockEmbedder)
        assert embedder.dim == 8

    def test_remote_dispatch(self):
        spec = EmbedderSpec(kind="remote", dim=8, endpoint="http://x/e", model="m")
        assert isinstance(make_embedder(spec), RemoteEmbedder)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_embedder(EmbedderSpec(kind="nope"))
