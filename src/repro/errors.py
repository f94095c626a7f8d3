"""Exception hierarchy for the JECB reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """Invalid schema definition (unknown table/column, bad key, bad FK)."""


class IntegrityError(ReproError):
    """A data operation violated a key or referential-integrity constraint."""


class StorageError(ReproError):
    """Invalid storage operation (missing row, duplicate key, bad table)."""


class SQLSyntaxError(ReproError):
    """The SQL tokenizer or parser rejected a statement."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ExecutionError(ReproError):
    """The query executor could not run a (syntactically valid) statement."""


class BindingError(ExecutionError):
    """A statement referenced a parameter that was not supplied."""


class AnalysisError(ReproError):
    """Static SQL analysis failed (e.g. unresolvable column reference)."""


class BindError(AnalysisError, ExecutionError):
    """A statement names a table or column outside its scope.

    Binding serves both the analyzer and the executor, so the one error is
    an :class:`AnalysisError` to the first and an :class:`ExecutionError`
    to the second.
    """


class PartitioningError(ReproError):
    """A partitioning algorithm was misused or hit an unrecoverable state."""


class JoinPathError(PartitioningError):
    """A sequence of attribute sets does not form a valid Definition-2 path."""


class WorkloadError(ReproError):
    """A benchmark workload was configured or driven incorrectly."""


class ClusterError(ReproError):
    """The simulated cluster was misconfigured or reached an invalid state."""


class ClusterUnavailable(ClusterError):
    """A transaction touched a crashed node and must abort (retryable)."""
