"""Exception types shared across the package."""


class Modk3Error(Exception):
    """Base of every error the package raises on purpose."""


class OrderViolation(Modk3Error):
    """sigma**3 or alpha**2 is not the identity (or the arrays are not permutations)."""


class NotTransitive(Modk3Error):
    """<sigma, alpha> does not act transitively on the edge set."""


class ResourceBound(Modk3Error):
    """Requested computation exceeds the supported exhaustive-search range."""


class DegenerateSubstitution(Modk3Error):
    """A substitution deleted every edge of the dessin."""


class DomainError(Modk3Error):
    """Argument outside the mathematical domain of the operation."""


class OutOfRange(Modk3Error):
    """Record outside the K3 range (genus > 0 or torsion-free index > 24)."""


class IncompleteCatalog(Modk3Error):
    """A torsion-free class is missing some of its expansion records."""


class ParseError(Modk3Error):
    """Malformed catalog line."""


class ValidationError(Modk3Error):
    """Record fields violate a structural invariant."""
