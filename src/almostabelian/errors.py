"""Shared exception types for the almost Abelian group library."""


class DegenerateDatum(ValueError):
    """The multiplicity function describes an Abelian algebra (all blocks (0,1))."""


class ExactnessUnavailable(ValueError):
    """The requested operation has no exact closed form for this input.

    Raised instead of silently falling back to floating point; the message
    names the offending Jordan block.
    """


class NoWitness(ValueError):
    """Raised when a non-exponentiality witness is requested for an exponential group."""


class NotCentral(ValueError):
    """An element required to be central is not."""


class UnsupportedLattice(ValueError):
    """A lattice violates the preconditions of the requested construction."""


class InvalidAutomorphism(ValueError):
    """An automorphism datum violates its defining relations."""


class InvalidSubgroup(ValueError):
    """Lattice generators are dependent or exceed the rank bound."""
