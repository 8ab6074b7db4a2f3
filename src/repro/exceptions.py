"""Exception hierarchy for the CrowdSky reproduction.

All library-raised exceptions derive from :class:`CrowdSkyError` so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class CrowdSkyError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(CrowdSkyError):
    """A relation schema is malformed or inconsistent with its rows."""


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that the schema does not define."""


class DataError(CrowdSkyError):
    """Tuple data violates a structural requirement (arity, domain, ...)."""


class CrowdPlatformError(CrowdSkyError):
    """The simulated crowdsourcing platform was used incorrectly."""


class BudgetExhaustedError(CrowdPlatformError):
    """A question was issued after the configured budget ran out."""


class FaultInjectionError(CrowdPlatformError):
    """An injected platform fault could not be recovered.

    Raised by a *strict* :class:`~repro.crowd.platform.SimulatedCrowd`
    when a fault hits a question and no retry policy is attached."""


class QuestionTimeoutError(CrowdPlatformError):
    """A question missed its per-question round deadline.

    Raised in strict mode when a :class:`~repro.crowd.retry.RetryPolicy`
    ``deadline_rounds`` would be exceeded before the next re-post."""


class RetriesExhaustedError(CrowdPlatformError):
    """A question failed on every allowed attempt.

    Raised in strict mode once a question has been re-posted
    ``RetryPolicy.max_attempts`` times without receiving an answer."""


class JournalError(CrowdSkyError):
    """The write-ahead vote journal is unusable (bad directory, broken
    header, or an append after close)."""


class JournalReplayError(JournalError):
    """A journal replay diverged from the resumed execution.

    Raised when a posting does not match the next recorded one (the
    journal belongs to a different config/seed/dataset), when restoring
    randomness onto a mismatched generator type, or when pure-replay
    mode runs past the recorded postings."""


class QueryError(CrowdSkyError):
    """Base class for errors in the SKYLINE OF query language."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenized or parsed."""


class QuerySemanticError(QueryError):
    """The query parsed but references unknown attributes or options."""


class ExperimentError(CrowdSkyError):
    """An experiment id or configuration is invalid."""


class ObservabilityError(CrowdSkyError):
    """The observability layer (tracer/metrics/exporters) was misused."""


class TraceSchemaError(ObservabilityError):
    """A recorded trace violates the event schema."""
