"""Embedding clients: a deterministic local mock for tests and offline runs,
and a remote HTTP client with batching, retries, and a disk cache."""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .remote import ConfigError, RemoteClient, RemoteError

logger = logging.getLogger(__name__)

_N_BUCKETS = 4096


class EmbedError(RemoteError):
    """An embedding request that failed, or vectors that do not fit the spec."""


@dataclass(frozen=True)
class EmbedderSpec:
    kind: str = "mock"
    dim: int = 256
    seed: int = 0
    endpoint: str | None = None
    model: str | None = None
    auth_env: str | None = None
    batch_size: int = 32
    cache_dir: str | None = None
    query_input_type: str | None = None
    document_input_type: str | None = None
    max_retries: int = 3
    backoff_base: float = 0.5


class MockEmbedder:
    """Hashes character trigrams into buckets and projects the counts through
    a seed-derived pseudorandom matrix, then L2-normalizes.

    Values depend only on (text, dim, seed), never on the platform or the
    order of calls.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim <= 0:
            raise ConfigError("embedder dim must be positive")
        self.dim = dim
        self.seed = seed
        self._rows: dict[int, np.ndarray] = {}
        self._gram_buckets: dict[str, int] = {}

    def _row(self, bucket: int) -> np.ndarray:
        row = self._rows.get(bucket)
        if row is None:
            rng = np.random.default_rng([self.seed, bucket])
            row = rng.standard_normal(self.dim)
            self._rows[bucket] = row
        return row

    def _bucket(self, gram: str) -> int:
        bucket = self._gram_buckets.get(gram)
        if bucket is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            bucket = self._gram_buckets[gram] = int.from_bytes(digest, "big") % _N_BUCKETS
        return bucket

    def _buckets(self, text: str) -> Counter:
        """Trigram counts per bucket, buckets in order of first occurrence."""
        if len(text) >= 3:
            grams = Counter(map("".join, zip(text, text[1:], text[2:])))
        else:
            grams = Counter([text])
        counts: Counter = Counter()
        for gram, count in grams.items():
            counts[self._bucket(gram)] += count
        return counts

    def embed_texts(self, texts: Sequence[str], input_type: str | None = None) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for text in texts:
            counts = self._buckets(text)
            weighted = np.array([self._row(bucket) for bucket in counts])
            weighted *= np.fromiter(counts.values(), dtype=np.float64, count=len(counts))[:, None]
            # Reducing axis 0 adds one row at a time in bucket order: the same
            # float operations as a running vec += count * row. (A single
            # column is summed pairwise, but at dim 1 only the sign of the
            # sum survives normalization.)
            vec = np.add.reduce(weighted, axis=0)
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                vec = self._row(0).copy()
                norm = float(np.linalg.norm(vec))
            out.append(vec / norm)
        return out


def save_vectors(fh: BinaryIO, vectors) -> None:
    """Writes vectors to fh as a float64 .npy array without pickled objects."""
    np.save(fh, np.asarray(vectors, dtype=np.float64), allow_pickle=False)


def load_vectors(fh: BinaryIO) -> np.ndarray:
    """The .npy array in fh; one holding pickled objects is a ValueError."""
    return np.load(fh, allow_pickle=False)


class VectorCache:
    """One raw float64 `.npy` file per (endpoint, dim, model, input type,
    text) key, with the endpoint and dim fixed per cache, so that embedders
    of another dim or at another endpoint keep their own entries in a shared
    directory. An entry that is not a 1-D float64 array is a miss. Writes go
    through a temp file named by process and thread and an atomic rename, so
    concurrent readers never see partial content and the last writer wins."""

    def __init__(self, root: str | Path, endpoint: str | None = None, dim: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._scope = (endpoint or "", str(dim or ""))

    def _path(self, model: str | None, text: str, input_type: str | None) -> Path:
        key = hashlib.sha256()
        for part in (*self._scope, model or "", input_type or "", text):
            key.update(part.encode("utf-8"))
            key.update(b"\x00")
        return self.root / f"{key.hexdigest()}.npy"

    def get(self, model: str | None, text: str, input_type: str | None) -> np.ndarray | None:
        path = self._path(model, text, input_type)
        try:
            with open(path, "rb") as fh:
                vector = load_vectors(fh)
        except FileNotFoundError:
            return None
        except (ValueError, EOFError):
            vector = None
        if isinstance(vector, np.ndarray) and vector.ndim == 1 and vector.dtype == np.float64:
            return vector
        logger.warning("discarding unreadable cache entry %s", path)
        return None

    def put(self, model: str | None, text: str, input_type: str | None, vector: Sequence[float]) -> None:
        path = self._path(model, text, input_type)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "wb") as fh:
            save_vectors(fh, vector)
        os.replace(tmp, path)


class RemoteEmbedder(RemoteClient):
    """POSTs {"texts": [...], "model": ...} and expects {"vectors": [[...]]}.

    Failed requests are retried with exponential backoff. Cached vectors are
    keyed by endpoint, dim, model, input type, and exact text; an entry whose
    shape does not match dim anyway is fetched again.
    """

    error = EmbedError
    label = "embedding"
    timeout = 60

    def __init__(self, spec: EmbedderSpec, *args, **kwargs):
        super().__init__(spec, *args, **kwargs)
        self.dim = spec.dim
        self._cache = VectorCache(spec.cache_dir, spec.endpoint, spec.dim) if spec.cache_dir else None

    def embed_texts(self, texts: Sequence[str], input_type: str | None = None) -> list[np.ndarray]:
        """One vector per text, in order. Each distinct text is looked up in
        the cache and, when missing, requested once per call, in batches of
        batch_size; every position it holds gets that one vector."""
        texts = list(texts)
        positions: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            positions.setdefault(text, []).append(i)
        vectors: list[np.ndarray | None] = [None] * len(texts)
        pending: list[str] = []
        for text, where in positions.items():
            cached = self._cache.get(self.spec.model, text, input_type) if self._cache else None
            if cached is not None:
                if cached.shape == (self.spec.dim,):
                    for i in where:
                        vectors[i] = cached
                    continue
                # only a damaged or hand-written entry has another shape
                logger.warning(
                    "cached vector has shape %s, configured dim is %d; fetching it again",
                    cached.shape,
                    self.spec.dim,
                )
            pending.append(text)
        for start in range(0, len(pending), self.spec.batch_size):
            batch = pending[start : start + self.spec.batch_size]
            for text, raw in zip(batch, self._request(batch, input_type)):
                arr = np.asarray(raw, dtype=np.float64)
                if arr.shape != (self.spec.dim,):
                    raise EmbedError(
                        f"embedding has dimension {arr.shape}, configured dim is {self.spec.dim}"
                    )
                for i in positions[text]:
                    vectors[i] = arr
                if self._cache:
                    self._cache.put(self.spec.model, text, input_type, arr)
        missing = [i for i, v in enumerate(vectors) if v is None]
        if missing:
            raise EmbedError(f"no vector returned for {len(missing)} of {len(texts)} texts")
        return vectors

    def _request(self, batch: list[str], input_type: str | None) -> list[list[float]]:
        payload: dict = {"texts": batch, "model": self.spec.model}
        if input_type:
            payload["input_type"] = input_type

        def read(body: dict) -> list[list[float]]:
            vectors = body["vectors"]
            if len(vectors) != len(batch):
                raise KeyError("vector count does not match batch size")
            return vectors

        return self._post(payload, read)


def make_embedder(spec: EmbedderSpec):
    if spec.kind == "mock":
        return MockEmbedder(dim=spec.dim, seed=spec.seed)
    if spec.kind == "remote":
        return RemoteEmbedder(spec)
    raise ConfigError(f"unknown embedder kind {spec.kind!r}")
