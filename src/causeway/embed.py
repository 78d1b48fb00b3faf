"""Embedding clients: a deterministic local mock for tests and offline runs,
and a remote HTTP client with batching, retries, and an SQLite vector cache."""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .params import EmbedderSpec
from .remote import ConfigError, RemoteClient, RemoteError

logger = logging.getLogger(__name__)

_N_BUCKETS = 4096
# SQLite's default limit on the variables of one statement before 3.32
_SQL_VARIABLES = 999


class EmbedError(RemoteError):
    """An embedding request that failed, or vectors that do not fit the spec."""


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
    """The .npy array in fh. Anything else, an .npz archive or an array of
    pickled objects included, is a ValueError."""
    return np.lib.format.read_array(fh, allow_pickle=False)


class VectorCache:
    """The remote embedder's vectors in one SQLite database,
    `<root>/vectors.sqlite`, one row per (endpoint, dim, model, input type,
    text) key, with the endpoint and dim fixed per cache, so that embedders
    of another dim or at another endpoint keep their own rows in a shared
    directory. A row holds the key's SHA-256 digest and the vector's
    little-endian float64 bytes; a value that is not a non-empty BLOB of a
    length divisible by 8 is a miss.

    Entering the cache opens one connection (WAL, synchronous=NORMAL) and
    leaving closes it; `load` reads the rows of a call's texts in one query
    per _SQL_VARIABLES keys, `get` answers from them, and `put` writes a
    batch in one transaction. A database or directory that cannot be used
    is one warning, after which the cache reads and writes nothing: the
    embedder never fails because of its cache."""

    def __init__(self, root: str | Path, endpoint: str | None = None, dim: int | None = None):
        self.path = Path(root) / "vectors.sqlite"
        self._scope = (endpoint or "", str(dim or ""))
        self._db = None
        self._rows: dict[bytes, object] = {}

    def _key(self, model: str | None, text: str, input_type: str | None) -> bytes:
        key = hashlib.sha256()
        for part in (*self._scope, model or "", input_type or "", text):
            key.update(part.encode("utf-8"))
            key.update(b"\x00")
        return key.digest()

    @contextmanager
    def _fault_is_a_miss(self):
        """A fault of the database or its directory inside the block is one
        warning and closes the cache, so that the call goes on uncached."""
        import sqlite3

        try:
            yield
        except (OSError, sqlite3.DatabaseError) as exc:
            logger.warning("vector cache %s is unusable, going on without it: %s", self.path, exc)
            self.close()

    def __enter__(self) -> "VectorCache":
        # imported here, not with the module: only a run with a cache pays for it
        import sqlite3

        with self._fault_is_a_miss():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # autocommit: put begins and commits its own transactions
            self._db = sqlite3.connect(self.path, isolation_level=None)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS vectors (key BLOB PRIMARY KEY, vector BLOB NOT NULL) WITHOUT ROWID"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None
        self._rows = {}

    def load(self, model: str | None, texts: Sequence[str], input_type: str | None) -> None:
        """Reads the rows of texts, replacing those an earlier load read."""
        self._rows = {}
        if self._db is None:
            return
        keys = [self._key(model, text, input_type) for text in texts]
        with self._fault_is_a_miss():
            for start in range(0, len(keys), _SQL_VARIABLES):
                chunk = keys[start : start + _SQL_VARIABLES]
                marks = ",".join("?" * len(chunk))
                self._rows.update(self._db.execute(f"SELECT key, vector FROM vectors WHERE key IN ({marks})", chunk))

    def get(self, model: str | None, text: str, input_type: str | None) -> np.ndarray | None:
        """The vector of the key among the rows load read, or None."""
        key = self._key(model, text, input_type)
        value = self._rows.get(key)
        if value is None:
            return None
        if isinstance(value, bytes) and value and len(value) % 8 == 0:
            return np.frombuffer(value, dtype="<f8").astype(np.float64)
        logger.warning("discarding unreadable cache entry %s in %s", key.hex(), self.path)
        return None

    def put(
        self, model: str | None, texts: Sequence[str], input_type: str | None, vectors: Sequence[np.ndarray]
    ) -> None:
        """Writes one row per text, all in one transaction."""
        if self._db is None:
            return
        rows = [
            (self._key(model, text, input_type), np.asarray(vector, dtype="<f8").tobytes())
            for text, vector in zip(texts, vectors)
        ]
        with self._fault_is_a_miss(), self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.executemany("INSERT OR REPLACE INTO vectors VALUES (?, ?)", rows)


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

    def embed_texts(self, texts: Sequence[str], input_type: str | None = None) -> list[np.ndarray]:
        """One vector per text, in order. Each distinct text is looked up in
        the cache and, when missing, requested once per call, in batches of
        batch_size; every position it holds gets that one vector. A batch is
        checked whole and cached before the next one is requested, so a call
        that fails keeps the batches before it."""
        spec = self.spec
        texts = list(texts)
        positions: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            positions.setdefault(text, []).append(i)
        vectors: list[np.ndarray | None] = [None] * len(texts)
        with VectorCache(spec.cache_dir, spec.endpoint, spec.dim) if spec.cache_dir else nullcontext() as cache:
            if cache is not None:
                cache.load(spec.model, list(positions), input_type)
            pending: list[str] = []
            for text, where in positions.items():
                cached = cache.get(spec.model, text, input_type) if cache is not None else None
                if cached is not None:
                    if cached.shape == (spec.dim,):
                        for i in where:
                            vectors[i] = cached
                        continue
                    # only a damaged or hand-written entry has another shape
                    logger.warning(
                        "cached vector has shape %s, configured dim is %d; fetching it again",
                        cached.shape,
                        spec.dim,
                    )
                pending.append(text)
            for start in range(0, len(pending), spec.batch_size):
                batch = pending[start : start + spec.batch_size]
                fetched = self._fetch(batch, input_type, positions)
                for text, arr in zip(batch, fetched):
                    for i in positions[text]:
                        vectors[i] = arr
                if cache is not None:
                    cache.put(spec.model, batch, input_type, fetched)
        return vectors

    def _fetch(self, batch: list[str], input_type: str | None, positions: dict[str, list[int]]) -> list[np.ndarray]:
        """The vectors of batch, or EmbedError naming the first text (by its
        first position in the call) whose vector is missing, not a list of
        dim numbers, or holds a NaN or infinity."""
        raw = self._request(batch, input_type)
        if len(raw) != len(batch):
            raise EmbedError(f"no vector returned for {len(batch) - len(raw)} of {len(batch)} texts")
        out = []
        for text, values in zip(batch, raw):
            where = positions[text][0]
            try:
                arr = np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError):
                raise EmbedError(f"embedding of text {where} is not a list of numbers") from None
            if arr.shape != (self.spec.dim,):
                raise EmbedError(
                    f"embedding of text {where} has dimension {arr.shape}, configured dim is {self.spec.dim}"
                )
            if not np.isfinite(arr).all():
                raise EmbedError(f"embedding of text {where} has a non-finite entry")
            out.append(arr)
        return out

    def _request(self, batch: list[str], input_type: str | None) -> list[list[float]]:
        payload: dict = {"texts": batch, "model": self.spec.model}
        if input_type:
            payload["input_type"] = input_type

        def read(body: dict) -> list[list[float]]:
            vectors = body["vectors"]
            if not isinstance(vectors, list):
                raise ValueError(f"vectors is a JSON {type(vectors).__name__}, not a list")
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
