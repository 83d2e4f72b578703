"""Exception types shared across the package."""


class BlockgraphError(Exception):
    """Base class for all package errors."""


class CycParseError(BlockgraphError):
    """Malformed cyclotomic expression or table document."""


class ValidationError(BlockgraphError):
    """A character table failed validation; .violations lists the relations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NotAlgebraicInteger(BlockgraphError):
    """Division of a cyclotomic integer left the ring of integers."""


class VertexNotFound(BlockgraphError):
    """Queried prime is not a vertex of the block graph."""


class InvalidDescriptor(BlockgraphError):
    """Family/rank/q combination is not a finite simple group of Lie type."""


class TitsGroup(InvalidDescriptor):
    """The Tits group 2F4(2)' is handled as a sporadic group, not here."""


class ConditionViolated(BlockgraphError):
    """Descriptor fails the conditions attached to its data-table row."""


class DefiningPrime(BlockgraphError):
    """ell equals the defining characteristic."""


class NotADivisor(BlockgraphError):
    """ell does not divide the group order."""


class BadPrime(BlockgraphError):
    """ell divides q, so the multiplicative order of q mod ell is undefined."""


class SizeExceeded(BlockgraphError):
    """Permutation group enumeration exceeded its bound."""


class FactorizationTooHard(BlockgraphError):
    """Factorization ran out of its budget of Pollard rho steps."""
