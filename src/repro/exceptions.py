"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class SchemaError(ReproError):
    """A relational object violates its schema (wrong arity, unknown relation,
    or a ground fact containing variables)."""


class NotWellDesignedError(ReproError):
    """A pattern tree violates the well-designedness condition of
    Definition 1(2): the nodes mentioning some variable are not connected."""


class NotGroundError(ReproError):
    """An operation that requires ground (variable-free) input received an
    atom or tuple containing variables."""


class ConstantsNotSupportedError(ReproError):
    """Approximation machinery was invoked on a query with constants.

    Section 5 of the paper explicitly restricts approximations to WDPTs
    without constants (the notion is not well understood otherwise, even for
    conjunctive queries); this library enforces the same restriction.
    """


class ClassMembershipError(ReproError):
    """An algorithm requiring a syntactic class (e.g. ``g-TW(k)`` for the
    Theorem 8 partial-evaluation algorithm) was applied to a query outside
    the class, and the caller asked for strict checking."""


class DecompositionError(ReproError):
    """A tree or hypertree decomposition is structurally invalid."""


class ParseError(ReproError):
    """The SPARQL-algebra parser could not parse its input."""


class BudgetExceededError(ReproError):
    """A bounded search (approximation / membership witness search) exceeded
    its configured work budget before reaching a definitive answer."""


class ResourceBudgetExceeded(ReproError):
    """A query ran past a hard resource budget (wall time, memory, or
    intermediate-relation cardinality) configured on the session — see
    :class:`repro.telemetry.resources.ResourceBudget`.  The partially
    computed result is discarded; the exception carries the offending
    dimension, the limit, the observed value, and — when the query ran
    under a trace context — the ``trace_id`` correlating the kill with
    its obslog lines and spans."""

    def __init__(
        self,
        dimension: str,
        limit: float,
        observed: float,
        trace_id: "str | None" = None,
    ):
        self.dimension = dimension
        self.limit = limit
        self.observed = observed
        self.trace_id = trace_id
        message = "hard %s budget exceeded: observed %g > limit %g" % (
            dimension, observed, limit,
        )
        if trace_id is not None:
            message += " [trace %s]" % trace_id
        super().__init__(message)

    def __reduce__(self):
        # Pickle by fields: the default would call ``__init__(message)``.
        return (
            type(self), (self.dimension, self.limit, self.observed, self.trace_id)
        )
