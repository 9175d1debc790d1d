"""Exception hierarchy for the lambda-trim reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MeterError",
    "OracleError",
    "OracleTimeout",
    "DebloatError",
    "JournalError",
    "AnalysisError",
    "PlatformError",
    "FunctionNotFound",
    "InvocationError",
    "DeploymentError",
    "WorkloadError",
    "TraceError",
    "PricingError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MeterError(ReproError):
    """Raised on invalid virtual-meter operations (e.g. unbalanced scopes)."""


class OracleError(ReproError):
    """Raised when an oracle specification is invalid or a run cannot start."""


class OracleTimeout(OracleError):
    """Raised when a single oracle test case exceeds its wall-clock budget."""


class DebloatError(ReproError):
    """Raised when the debloater cannot safely transform a module."""


class JournalError(DebloatError):
    """Raised on an unusable write-ahead probe journal (corrupt or missing)."""


class AnalysisError(ReproError):
    """Raised by the static analyzer / call-graph extractor on bad input."""


class PlatformError(ReproError):
    """Base class for serverless-platform emulator errors."""


class FunctionNotFound(PlatformError):
    """Raised when invoking or updating a function that was never deployed."""


class InvocationError(PlatformError):
    """Raised when a function invocation fails inside the emulator."""


class DeploymentError(PlatformError):
    """Raised when a deployment package is malformed."""


class WorkloadError(ReproError):
    """Raised by the synthetic workload generator on invalid specifications."""


class TraceError(ReproError):
    """Raised by the Azure-style trace generator / simulator."""


class PricingError(ReproError):
    """Raised on invalid pricing-model configuration."""


class CheckpointError(ReproError):
    """Raised by the checkpoint/restore simulator."""
