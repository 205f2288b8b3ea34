"""Kodaira fibre bookkeeping and Euler numbers of elliptic surfaces.

Ramification entries in EulerInput count EXCESS branching: 0 means
unramified.  That convention is forced by the corollary cross-check
(an unramified 2-torsion preimage must contribute 6 * {1/2} = 3), and
everything downstream assumes it.
"""

from collections import namedtuple

from .errors import DomainError
from .lifts import tf_index
from .slwords import Mat2

KodairaFibre = namedtuple(
    "KodairaFibre", "name ade_label euler_number local_monodromy j_behavior")

# unstarred rows; the starred partner negates the matrix and adds 6
_PLAIN = {
    "I0":  (None, 0, Mat2(1, 0, 0, 1), "regular"),
    "II":  (None, 2, Mat2(1, 1, -1, 0), "s^{3k+1}"),
    "III": ("A1", 3, Mat2(0, 1, -1, 0), "1728+s^{2k+1}"),
    "IV":  ("A2", 4, Mat2(0, 1, -1, -1), "s^{3k+2}"),
}
_STAR_PARTNER = {"I0*": "I0", "Ib*": "Ib", "IV*": "II", "III*": "III", "II*": "IV"}
_STAR_ADE = {"I0*": "D4", "IV*": "E6", "III*": "E7", "II*": "E8"}


def kodaira_fibre(name, b=0):
    """Fibre data by type name; I1 and Ib/Ib* take the cusp width b."""
    if name == "I1":
        name, b = "Ib", 1
    if name in ("Ib", "Ib*") and b < 1:
        raise DomainError(f"{name} needs b >= 1")
    if name == "Ib":
        return KodairaFibre(f"I{b}", f"A{b - 1}", b, Mat2(1, b, 0, 1), "pole")
    if name in _PLAIN:
        ade, e, m, j = _PLAIN[name]
        return KodairaFibre(name, ade, e, m, j)
    if name in _STAR_PARTNER:
        base = kodaira_fibre(_STAR_PARTNER[name], b)
        ade = f"D{b + 4}" if name == "Ib*" else _STAR_ADE[name]
        return KodairaFibre(f"I{b}*" if name == "Ib*" else name, ade,
                            base.euler_number + 6, -base.local_monodromy,
                            base.j_behavior)
    raise DomainError(f"unknown fibre type {name!r}")


def star_partner(name):
    """Unstarred partner of a starred type name (II* -> IV etc.)."""
    key = name
    if name.endswith("*") and name[1:-1].isdigit() and name != "I0*":
        key = "Ib*"
    if key not in _STAR_PARTNER:
        raise DomainError(f"{name!r} is not a starred type")
    return _STAR_PARTNER[key]


EulerInput = namedtuple("EulerInput", "star_count l index r_list t_list")


def euler_number(inp):
    """6*(stars) + l*index + 6*(sum of fractional parts (r+1)/2, (t+1)/3).

    Six times a fractional part in halves or thirds is an integer,
    3*((r+1) mod 2) or 2*((t+1) mod 3), so the sum is exact in integers.
    """
    if (inp.star_count < 0 or inp.l < 1
            or any(r < 0 for r in inp.r_list) or any(t < 0 for t in inp.t_list)):
        raise DomainError(f"Euler input out of range: {inp}")
    return (6 * inp.star_count + inp.l * inp.index
            + sum(3 * ((r + 1) % 2) for r in inp.r_list)
            + sum(2 * ((t + 1) % 3) for t in inp.t_list))


def corollary_euler(star_count, index, e2, e3):
    """Euler number with every torsion preimage unramified and l = 1."""
    return euler_number(EulerInput(star_count, 1, index, [0] * e2, [0] * e3))


def minimal_euler_tf(index):
    """Minimal Euler number over a torsion-free subgroup of given index."""
    if index % 6 != 0:
        raise DomainError(f"torsion-free index must be a multiple of 6, got {index}")
    return index if index % 12 == 0 else index + 6


def minimal_euler(rec):
    """Minimal Euler number of any elliptic surface over the record's group."""
    return minimal_euler_tf(tf_index(rec))


def is_monodromy_at(rec, n):
    """Does the group occur as monodromy of a relatively minimal elliptic
    surface with Euler number n?  (n=24 is the K3 case.)"""
    return n % 12 == 0 and rec.genus == 0 and tf_index(rec) <= n
