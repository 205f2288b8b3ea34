"""Exact census of finite-index modular subgroup classes and the lifts
realized by elliptically fibered K3 surfaces.

Everything is computed from permutation pairs -- no floats, no randomness
in the results (random input only appears in the self-check word tests).
"""

__version__ = "0.1.0"

from .hypermap import Hypermap, subgroup_type, cusp_widths, canonical_code
from .errors import (
    Modk3Error, OrderViolation, NotTransitive, ResourceBound,
    DegenerateSubstitution, DomainError, OutOfRange, IncompleteCatalog,
    ParseError, ValidationError,
)
