"""The config schema's embedder, graph and BM25 sections. They live apart
from embed, graphrag and lexindex so that reading a config imports no numpy."""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class HybridParams:
    alpha: float = 0.7
    edge_threshold: float = 0.4
    k_dense: int = 3
    k_sparse: int = 2


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75
    delta: float = 1.0
    entity_boost: float = 3.0
