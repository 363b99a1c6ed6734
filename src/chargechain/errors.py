"""Exception taxonomy shared by the whole package."""


class ChargeChainError(Exception):
    """Base class for all package errors."""


class DomainError(ChargeChainError):
    """Objects live on incompatible spaces or reference unknown ends."""


class ValidationError(ChargeChainError):
    """Malformed input data (bad rows, bad literals, bad parameters)."""


class PreconditionError(ChargeChainError):
    """An operation was called outside its documented contract."""


class CapacityError(ChargeChainError):
    """An exact enumeration was requested beyond its size cap."""


class StructureError(ChargeChainError):
    """A kernel lacks the structure an operation needs (e.g. tail rows)."""


class NumericalError(ChargeChainError):
    """A solve came out non-finite in floating point."""
