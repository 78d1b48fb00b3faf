from __future__ import annotations

import json
import logging
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
from helpers import cosine, mock_embed_reference


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
        cache = VectorCache(tmp_path)
        vec = np.arange(4, dtype=np.float64)
        cache.put("model-x", "query", "some text", vec)
        got = cache.get("model-x", "query", "some text")
        np.testing.assert_array_equal(got, vec)

    def test_miss_returns_none(self, tmp_path):
        cache = VectorCache(tmp_path)
        assert cache.get("m", "query", "absent") is None

    def test_keyed_by_model_and_input_type(self, tmp_path):
        cache = VectorCache(tmp_path)
        cache.put("m1", "query", "t", np.ones(2))
        assert cache.get("m2", "query", "t") is None
        assert cache.get("m1", "document", "t") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        cache = VectorCache(tmp_path)
        cache.put("m", "query", "t", np.ones(2))
        entry = next(tmp_path.iterdir())
        entry.write_bytes(b"not a numpy file")
        assert cache.get("m", "query", "t") is None
        entry.write_text('{"vector": ["x", "y"]}', encoding="utf-8")
        assert cache.get("m", "query", "t") is None

    def test_same_key_from_two_threads(self, tmp_path, monkeypatch):
        cache = VectorCache(tmp_path)
        real_replace = embed.os.replace
        errors: list[Exception] = []

        def other_put():
            try:
                cache.put("m", "query", "t", np.full(2, 2.0))
            except Exception as err:  # surfaced in the main thread
                errors.append(err)

        def interleaved(src, dst):
            # the first put has written its temp file; a second thread puts
            # the same key before the first renames
            monkeypatch.setattr(embed.os, "replace", real_replace)
            thread = threading.Thread(target=other_put)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            real_replace(src, dst)

        monkeypatch.setattr(embed.os, "replace", interleaved)
        cache.put("m", "query", "t", np.ones(2))
        assert errors == []
        np.testing.assert_array_equal(cache.get("m", "query", "t"), np.ones(2))
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


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
        assert len(list(tmp_path.iterdir())) == 2  # one cache file per distinct text


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
        assert len(list(tmp_path.iterdir())) == 2

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
        assert len(list(tmp_path.iterdir())) == 2

    def test_cached_entry_of_the_wrong_shape_is_fetched_again(self, fake_server, tmp_path, caplog):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"], 8)))
        spec = self._spec(fake_server.url, dim=8, cache_dir=str(tmp_path))
        VectorCache(tmp_path, spec.endpoint, 8).put(spec.model, "hello", None, np.ones(4))
        with caplog.at_level(logging.WARNING, logger="causeway.embed"):
            out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert out[0].shape == (8,)
        assert "configured dim is 8" in caplog.text
        # the refetched vector replaced the damaged entry
        again = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])
        assert len(fake_server.requests) == 1
        np.testing.assert_array_equal(again[0], out[0])

    @pytest.mark.parametrize(
        "entry",
        [
            np.ones(4, dtype=np.float32),
            np.ones(4, dtype=np.int64),
            np.ones((1, 4)),
            np.array([1.0, 2.0, 3.0, "x"], dtype=object),
        ],
        ids=["float32", "int64", "2-d", "object"],
    )
    def test_entry_not_1d_float64_is_fetched_again(self, fake_server, tmp_path, caplog, entry):
        fake_server.set_responder(lambda path, body, headers: (200, _vectors_payload(body["texts"])))
        spec = self._spec(fake_server.url, cache_dir=str(tmp_path))
        want = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(["hello"])[0]
        (path,) = tmp_path.iterdir()
        with open(path, "wb") as fh:
            np.save(fh, entry, allow_pickle=True)
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
        # the layout of the JSON cache: the same key, a .json suffix
        cache = VectorCache(tmp_path, spec.endpoint, spec.dim)
        old = {}
        for text in texts:
            path = cache._path(spec.model, text, None).with_suffix(".json")
            path.write_text(json.dumps({"vector": [9.0] * spec.dim}), encoding="utf-8")
            old[path] = path.read_bytes()
        out = RemoteEmbedder(spec, sleep=lambda s: None).embed_texts(texts)
        assert [t for r in fake_server.requests for t in r["body"]["texts"]] == texts
        assert [v.tolist() for v in out] == _vectors_payload(texts)["vectors"]
        assert sorted(p.name for p in tmp_path.glob("*.npy")) == sorted(p.with_suffix(".npy").name for p in old)
        assert {p: p.read_bytes() for p in tmp_path.glob("*.json")} == old

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
