"""Exception types shared across the library.

Every error raised for a *malformed or out-of-contract input* lives here.
Failed axiom checks are never exceptions: verifiers return reports in which
failures are data (see :mod:`quadalg.reports`).
"""
from __future__ import annotations


class QuadAlgError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(QuadAlgError):
    """Matrix or morphism shapes do not line up for the requested operation."""


class CompositionNonzero(QuadAlgError):
    """The two maps handed to a homology computation do not compose to zero."""


class TooLarge(QuadAlgError):
    """A request beyond a configured bound, refused before work starts: an
    enumeration, chain, word-pair or matrix-size cap, or a cochain level's."""


class DegreeTooHigh(QuadAlgError):
    """A cochain degree beyond the configured cap was requested."""


class BasisMismatch(QuadAlgError):
    """Two normal-form elements live over different generator universes."""


class NotASquareRing(QuadAlgError):
    """The input failed the square-ring contract where a square ring is required."""


class NotAQuadraticRing(QuadAlgError):
    """The input failed the quadratic-ring contract."""


class NotAQpm(QuadAlgError):
    """The input failed the quadratic pair module identities."""


class ActionShapeMismatch(QuadAlgError):
    """An action's carriers do not match the structures it is attached to."""


class NotASection(QuadAlgError):
    """The supplied splitting is not a section of the projection."""


class NotExact(QuadAlgError):
    """A sequence required to be exact is not."""


class NotEeAntidiscrete(QuadAlgError):
    """The groupoid is not antidiscrete on ee-parts, so no pair module exists."""


class IllDefinedMultiplication(QuadAlgError):
    """A quotient multiplication does not descend to the quotient."""


class NotInKernel(QuadAlgError):
    """An element expected to land in a kernel subgroup does not."""


class NotSurjective(QuadAlgError):
    """A map required to be surjective is not."""


class PullbackDegenerate(QuadAlgError):
    """A pullback construction produced a degenerate or empty carrier."""


class BoundaryMismatch(QuadAlgError):
    """Track data does not satisfy the boundary condition entrywise."""


class NotFinite(QuadAlgError):
    """A finite carrier or category was required."""


class SectionInvalid(QuadAlgError):
    """A user-supplied section does not lift the morphisms it must lift."""


class NotIdentityOnObjects(QuadAlgError):
    """A functor required to be the identity on objects is not."""


class DocumentError(QuadAlgError):
    """A document file is malformed or fails its schema."""
