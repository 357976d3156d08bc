"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class RegistryError(PipelineError):
    """Malformed or invalid metadata registry file."""


class DocumentError(PipelineError):
    """Malformed document input or structured-document invariant violation."""


class TableStructureError(DocumentError):
    """Conflicting or unresolvable table cell placement."""


class ProviderError(PipelineError):
    """A pluggable provider (embedding, rerank, chat) failed."""


class KnowledgeBaseError(PipelineError):
    """Knowledge-base file corruption, version or dimension mismatch."""


class RetrievalError(PipelineError):
    """Invalid similarity-search input (zero-norm vector, dim mismatch)."""


class EvaluationError(PipelineError):
    """Label sets or evaluation inputs are inconsistent with the registry."""


class AnalyticsError(PipelineError):
    """Analytics input fails validation (e.g. non-positive market cap)."""


class ConfigError(PipelineError):
    """Run configuration is missing, unreadable, or inconsistent."""
