"""Counting SL(2,Z) lift classes realized by K3 surfaces.

One rule, lift_profile, counts the lifts; it keys on k = (torsion-free
index) / 6 and the torsion signature (e2, e3), all read from the record.
Lifts are counted, never materialized as matrix groups; star
configurations are face subsets up to automorphism.

Records are duck-typed: anything with e2, e3, genus, tf_code and
canonical_code (codes as hex strings) works, so this module does not
depend on the catalog layer.  The code must be a dessin's, as in a record
that read_records returns or the record build makes: the dessin was
validated where it entered, so the lift rules decode and walk it unchecked.
totals only checks that a catalog is complete, from the classes_over count
of each re-enumerated tf class; the reports count its classes and the
stored lifts, as a read proved them (stored_lifts).
"""

from collections import namedtuple

from .errors import DomainError, IncompleteCatalog, OutOfRange, ValidationError
from .generate import enumerate_classes
from .hypermap import _automorphism_group, cycles, from_code
from .torsion import classes_over, orbit_representatives

STRATA = (6, 12, 18, 24)     # the tf indices 6k of the K3 strata, k = 1..4

LiftProfile = namedtuple("LiftProfile", "one_to_one two_to_one")


def _decode(rec):
    """The dessin of a record, rebuilt from its hex canonical code."""
    return from_code(bytes.fromhex(rec.canonical_code))


def tf_index(rec):
    """Index of the torsion-free class the record retracts to:
    n + 3 e2 + 2 e3, read from the first byte of its tf code."""
    return bytes.fromhex(rec.tf_code)[0]


def lift_profile(rec):
    """(1:1 count, 2:1 count) of K3-realized lift classes; rec's code
    must be a dessin's, as a read or the record build gives (unchecked).
    k = tf index / 6.  e2 > 0 has only the full preimage (2-torsion forces
    -I); k = 4 has one lift, counted 1:1 (with e3 > 0 its kind is not
    pinned down); otherwise the star rule counts the Aut-orbits of face
    sets S that carry *-fibres, whose Euler number 6k + 6 e3 + 6|S| (a
    sigma fixed point counts as one star) is <= 24 and a multiple of 12:
    |S| <= budget = 4 - k - e3, budget - |S| even.  Genus > 0 and tf index
    > 24 are refused before any walk; only a budget >= 1 walks, to Aut
    and 2^(k+2-e3) face subsets."""
    if rec.genus > 0:
        raise OutOfRange(f"genus {rec.genus} group is never a K3 monodromy group")
    k6 = tf_index(rec)
    if k6 > 24:
        raise OutOfRange(f"torsion-free index {k6} exceeds the K3 bound 24")
    if k6 % 6 or not k6:
        raise DomainError(f"torsion-free index {k6} is not a positive multiple of 6")
    k = k6 // 6

    if rec.e2 > 0:
        return LiftProfile(0, 1)
    if k == 4:
        return LiftProfile(1, 0)
    budget = 4 - k - rec.e3
    if budget <= 0:
        return LiftProfile(int(budget == 0), 1)
    h = _decode(rec)
    return LiftProfile(sum(1 for v in orbit_representatives(
        _automorphism_group(h), cycles(h.phi()), (0, 1))
        if sum(v) <= budget and (budget - sum(v)) % 2 == 0), 1)


def stored_lifts(rec):
    """The lift pair a record stores, as a read proved it (both or neither)."""
    if rec.lift_one_to_one is None:
        raise IncompleteCatalog(f"record {rec.id} stores no lift counts; "
                                f"`modk3 lifts` adds them")
    return LiftProfile(rec.lift_one_to_one, rec.lift_two_to_one)


def _tf_expansion_counts(n):
    """{tf code hex: number of classes over it} for torsion-free index n."""
    counts = {}
    for code, _ in enumerate_classes(n, genus=0, torsion_free=True):
        h = from_code(code)
        counts[code.hex()] = sum(1 for _ in classes_over(
            h, _automorphism_group(h)))
    return counts


def totals(catalog):
    """Check that catalog is a complete K catalog; returns None.

    Completeness is re-derived, not trusted: every torsion-free class of
    index 6..24 is re-enumerated and its expansion count compared against
    the records present.  Each class must appear once, so a record
    swapped for a copy of another is caught.
    """
    by_tf = {}
    codes = set()
    for rec in catalog:
        if tf_index(rec) not in STRATA:
            raise IncompleteCatalog(
                f"record {rec.canonical_code[:8]}... retracts to index "
                f"{tf_index(rec)}, outside 6..24")
        if rec.canonical_code in codes:
            raise ValidationError(
                f"record {rec.canonical_code[:8]}... appears twice")
        codes.add(rec.canonical_code)
        by_tf.setdefault(rec.tf_code, []).append(rec)

    for n in STRATA:
        counts = _tf_expansion_counts(n)
        for code, want in counts.items():
            have = len(by_tf.get(code, ()))
            if have != want:
                raise IncompleteCatalog(
                    f"tf class {code[:8]}... at index {n} has {have} of "
                    f"{want} expansion records")
        stray = {c for c in by_tf if bytes.fromhex(c)[0] == n} - set(counts)
        if stray:
            raise IncompleteCatalog(
                f"{len(stray)} records at tf index {n} reference unknown tf classes")
