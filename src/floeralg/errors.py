"""Exception types shared across the engine.

They are grouped here so the CLI can map whole families to exit codes:
input/validation problems exit 2, numerical-sampling guards exit 3.
"""


class FloeralgError(Exception):
    """Base class for all engine errors."""


class InputError(FloeralgError):
    """Bad input data: malformed files, shape mismatches, broken invariants."""


# -- linear algebra ----------------------------------------------------------

class NotASubspace(InputError):
    """Claimed containment of subspaces fails."""


# -- graded rings and derivations --------------------------------------------

class SizeLimit(InputError):
    """Requested object exceeds the supported desk-scale bounds."""


class NotDegreeOneGenerated(InputError):
    """Ring is not generated by its unit and degree-1 part."""


class RingAxiomFailure(InputError):
    """Ring breaks the unit law or associativity on a degree-1 triple."""


class NotApplicable(InputError):
    """Precondition of a lemma or driver does not hold for these arguments."""


class InconsistentExtension(InputError):
    """Leibniz extension of generator values contradicts a ring relation."""


class ZeroDerivation(InputError):
    """Operation requires a nonzero derivation."""


class NotShiftMinusOne(InputError):
    """Operation requires a derivation of degree shift -1."""


# -- Floer complexes and spectral pages --------------------------------------

class ShapeMismatch(InputError):
    """Operator or product table has the wrong source/target degrees."""


class NotADifferential(InputError):
    """The total differential does not square to zero."""


class ProductsAbsent(InputError):
    """Complex carries no product tables."""


class LeibnizFailure(InputError):
    """Product tables are inconsistent with the differential."""


class LiftFailure(FloeralgError):
    """Internal zig-zag lift inconsistency; indicates a broken differential."""


# -- theorem drivers ----------------------------------------------------------

class HypothesisFailure(InputError):
    """A theorem hypothesis is violated by the arguments."""


# -- Maslov index --------------------------------------------------------------

class NotLagrangian(InputError):
    """Frame does not span a Lagrangian subspace within tolerance."""


class DegenerateFrame(InputError):
    """Frame is rank-deficient or orthonormalization failed to converge."""


class InsufficientSampling(FloeralgError):
    """Consecutive loop samples are too far apart for a trustworthy winding."""
