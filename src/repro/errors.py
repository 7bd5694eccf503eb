"""Exception hierarchy for :mod:`repro`.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class CapacityError(ReproError):
    """A host was asked to accept more memory than it has available."""


class PowerStateError(ReproError):
    """An operation is illegal in the host's current power state."""


class MigrationError(ReproError):
    """A migration request cannot be carried out."""


class TraceFormatError(ReproError):
    """A trace file or trace record is malformed."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class WorkerLostError(ReproError):
    """A pool worker process died mid-batch, taking the named runs with
    it; no partial result is returned."""


class CompressionError(ReproError):
    """A compressed page stream is malformed and cannot be decoded."""


class FaultInjectionError(ReproError):
    """A fault plan or fault profile is inconsistent with the cluster."""


class ObservabilityError(ReproError):
    """The tracing layer was misused (corrupt span stack,
    non-serializable event payload, malformed trace record)."""
