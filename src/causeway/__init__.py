"""Causeway: graph-assisted retrieval, sampled LLM inference, and rule-based
consistency enforcement for multi-label cause selection over news topics."""

__version__ = "0.1.0"
