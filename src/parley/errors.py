"""Exception hierarchy shared across the engine."""


class ParleyError(Exception):
    """Base class for all engine errors."""


class SchemaError(ParleyError):
    """A scenario, roster, or artifact file violates its documented schema."""


class NotFoundError(ParleyError):
    """A named built-in (scenario, policy, metric) does not exist."""


class ConfigurationError(ParleyError):
    """Invalid agent, backend, or pipeline configuration."""


class EvaluationError(ParleyError):
    """An assignment references terms that the scenario does not define."""


class SessionAbortError(ParleyError):
    """A chat backend request failed and the client gave up; carries the cause."""


class BackendStatusError(ParleyError):
    """The chat endpoint answered with a non-2xx status.

    ``retry_after`` is the reply's numeric ``Retry-After`` in seconds, if any.
    """

    def __init__(self, status: int, retry_after: float | None = None):
        super().__init__(f"HTTP {status}")
        self.status = status
        self.retry_after = retry_after


class ExtractionConflictError(ParleyError):
    """Restated closing terms contradict each other; pairing needs review."""


class ScoringError(ParleyError):
    """A model-backed rater returned an unusable reply."""

    def __init__(self, message: str, raw_reply: str = ""):
        super().__init__(message)
        self.raw_reply = raw_reply


class RankDeficiencyError(ParleyError):
    """Design matrix is rank deficient; names the dependent columns."""


class SeparationError(ParleyError):
    """Logistic fit detected (quasi-)complete separation."""


class DegenerateClusteringError(ParleyError):
    """A requested cluster dimension has a single cluster."""


class UndefinedStatisticError(ParleyError):
    """A statistic is undefined on this input (e.g. zero variance)."""


class PrerequisiteError(ParleyError):
    """A pipeline stage is missing an upstream artifact."""


class ArtifactMismatchError(ParleyError):
    """Artifacts produced under different configurations were mixed."""
