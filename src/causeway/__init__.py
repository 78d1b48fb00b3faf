"""Causeway: graph-assisted retrieval, sampled LLM inference, and rule-based
consistency enforcement for multi-label cause selection over news topics."""

__version__ = "0.1.0"

from .corpus import (
    LETTERS,
    CorpusError,
    DocumentRecord,
    QuestionRecord,
    SiblingGroup,
    detect_none_option,
    duplicate_classes,
    load_docs,
    load_questions,
    normalize_text,
    sibling_groups,
)
from .lexindex import Bm25Params, LexIndex, bm25_plus, extract_entities, lexical_similarity, tokenize
from .embed import EmbedderSpec, MockEmbedder, RemoteEmbedder, cosine, make_embedder
from .remote import ConfigError
from .graphrag import (
    DocGraph,
    EntryPoints,
    HybridParams,
    RetrievalResult,
    TopicContextCache,
    TopicRetriever,
    build_graph,
    entry_points,
    hybrid_weight,
    make_query,
    retrieve,
)
from .reason import (
    AggregationParams,
    LlmClientSpec,
    ParsedPrediction,
    SamplingParams,
    VoteTally,
    aggregate,
    make_client,
    parse_response,
    render_prompt,
    sample_question,
    tally,
    threshold_votes,
)
from .consist import (
    ChangeRecord,
    ConsistencyOutcome,
    FixedPointReport,
    run_to_fixed_point,
    output_validity_violations,
)
from .evaluate import (
    AgreementReport,
    BiasReport,
    OracleReport,
    ScoreReport,
    agreement_report,
    bias_stats,
    cohen_kappa,
    fleiss_kappa,
    krippendorff_alpha,
    oracle_report,
    score_question,
    score_run,
)
