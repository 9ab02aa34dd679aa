"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can install a single ``except ReproError`` guard around any public entry
point.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class PathSyntaxError(ReproError, ValueError):
    """A path expression could not be parsed."""


class ConstraintSyntaxError(ReproError, ValueError):
    """A path-constraint expression could not be parsed."""


class GraphError(ReproError):
    """A graph (sigma-structure) was malformed or misused."""


class UnknownNodeError(GraphError, KeyError):
    """A node identifier was not present in the graph."""


class SchemaError(ReproError):
    """A type schema was malformed (dangling class, bad DBtype, ...)."""


class ModelRestrictionError(SchemaError):
    """A schema violates the restrictions of the requested model.

    For example, a schema containing a set type is not a schema of the
    restricted model M (Section 3.3 of the paper).
    """


class InstanceError(ReproError):
    """A typed database instance violates its declared schema."""


class TypeConstraintViolation(ReproError):
    """A graph fails the type constraint Phi(Delta) of a schema."""


class PathNotInSchemaError(ReproError, ValueError):
    """A path used in a constraint is not in Paths(Delta) for the schema."""


class UndecidableProblemError(ReproError):
    """An exact decision was requested for a provably undecidable problem.

    The dispatcher raises this instead of silently falling back to a
    semi-decision procedure, unless the caller opted in to semi-decision.
    """


class ChaseBudgetExceeded(ReproError):
    """The chase hit its step budget before reaching a fixpoint."""


class RuntimeFaultError(ReproError):
    """Base class for faults of the solver's execution machinery.

    These never signal anything about the implication instance itself
    — only about the machinery that was computing it.  The portfolio
    converts them into honest UNKNOWN contributions wherever soundness
    allows; they surface as exceptions only when no sound degraded
    answer exists.
    """


class RetryExhausted(RuntimeFaultError):
    """An engine raised on its first attempt and on every retry.

    Carries the final underlying exception as ``__cause__``.
    """


class HungSolveError(RuntimeFaultError):
    """A solve was still running at its deadline + grace; the watchdog
    abandoned it and retired its solver thread.

    The paper's implication problem is undecidable in the general
    case, so unboundedly long solves are intrinsic to the workload —
    this error is the runtime's honest acknowledgement that a
    particular solve was abandoned, never evidence about the instance
    itself.  Callers receive UNKNOWN, never a fabricated verdict.
    """


class InjectedFault(RuntimeFaultError):
    """A deliberate fault raised by the fault-injection layer.

    Only ever raised when injection is explicitly enabled
    (``repro imply --inject``, ``repro fuzz --inject-rate``, or a
    :class:`repro.reasoning.faultinject.FaultPlan` passed in code).
    """


class ProtocolError(ReproError, ValueError):
    """A server request or response violated the wire protocol.

    Raised for unparseable frames, unsupported protocol versions,
    unknown operations and oversized lines — always before any solver
    work starts, so a malformed client can never wedge the daemon.
    """


class ServerUnavailable(ReproError):
    """The implication server refused or could not take the request.

    Client-side: raised after retries are exhausted against an
    overloaded server, when the server is draining, or when the
    connection cannot be established at all.  ``retry_after_ms``
    carries the server's backpressure hint when one was given.
    """

    def __init__(self, message: str, retry_after_ms: int | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class IncompleteFragmentError(ReproError):
    """The instance falls outside a decider's guaranteed-complete
    fragment and every sound fallback was indefinite.

    Raised by the word-constraint decider for premise sets containing
    equality-generating constraints (empty conclusion paths) when both
    the sound closure and the budgeted chase fail to settle the query.
    The three-rule axiomatization of [AV97] is complete only for the
    fragment without empty conclusions; see ``repro.reasoning.word``.
    """


class ProofError(ReproError):
    """An I_r proof object failed verification."""


class XMLSyntaxError(ReproError, ValueError):
    """The minimal XML parser rejected its input."""


class RegexSyntaxError(ReproError, ValueError):
    """A regular path expression could not be parsed."""
