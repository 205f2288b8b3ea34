"""The one lift rule, lift_profile: the star rule at budget 4 - k - e3
(its 1:1 count is the star orbits), (0, 1) for e2 > 0, (1, 0) at k = 4;
the double-cover referee against the stored pairs; stratum bookkeeping."""

from collections import Counter, namedtuple

from modk3 import lifts
from modk3.errors import (
    DomainError, IncompleteCatalog, OutOfRange, ValidationError,
)
from modk3.hypermap import canonical_code, cycles, subgroup_type
from modk3.lifts import lift_profile, stored_lifts, tf_index, totals
from modk3.torsion import expand_classes

from helpers import (
    class_dessins, cover_lift_pair, cusp_widths, reference_automorphisms,
)

Rec = namedtuple("Rec", "e2 e3 genus tf_code canonical_code")


def rec_of(h, tf_h):
    t = subgroup_type(h)
    return Rec(t.e2, t.e3, t.g, canonical_code(tf_h).hex(),
               canonical_code(h).hex())


def tf_classes(n):
    return class_dessins(n, genus=0, torsion_free=True)


def stratum(n):
    """All records over the torsion-free classes of index n."""
    out = []
    for h in tf_classes(n):
        for _, sub in expand_classes(h):
            out.append(rec_of(sub, h))
    return out


def by_widths(n, widths):
    picks = [h for h in tf_classes(n) if cusp_widths(h) == widths]
    assert len(picks) == 1
    return picks[0]


def test_star_orbit_examples():
    for n, widths, want in ((12, (3, 3, 3, 3), 2), (6, (2, 2, 2), 2),
                            (6, (4, 1, 1), 3)):
        h = by_widths(n, widths)
        assert lift_profile(rec_of(h, h)).one_to_one == want


def test_star_orbits_index_twelve_row():
    want = {(3, 3, 3, 3): 2, (4, 4, 2, 2): 4, (5, 5, 1, 1): 5,
            (6, 3, 2, 1): 7, (8, 2, 1, 1): 5, (9, 1, 1, 1): 3}
    for h in tf_classes(12):
        assert lift_profile(rec_of(h, h)).one_to_one == want[cusp_widths(h)]


def test_lift_profile_examples():
    h = by_widths(12, (9, 1, 1, 1))
    assert lift_profile(rec_of(h, h)) == (3, 1)
    # H1 is the k=1, e3=1 torsion class
    h411 = by_widths(6, (4, 1, 1))
    for _, sub in expand_classes(h411):
        t = subgroup_type(sub)
        if (t.e2, t.e3) == (0, 1):
            assert lift_profile(rec_of(sub, h411)) == (2, 1)
        if t.e2 > 0:
            assert lift_profile(rec_of(sub, h411)) == (0, 1)


def test_lift_profile_k24():
    h = tf_classes(24)[0]
    assert lift_profile(rec_of(h, h)) == (1, 0)
    # torsion over an index-24 class still yields exactly one lift; with
    # e2 = 0 and e3 > 0 its kind is not pinned down, and it counts as 1:1
    for _, sub in expand_classes(h):
        t = subgroup_type(sub)
        p = lift_profile(rec_of(sub, h))
        assert p.one_to_one + p.two_to_one == 1
        if t.e2 == 0 and t.e3 > 0:
            assert p == (1, 0)


def test_k2_e3_one_face_orbits():
    # the star rule at budget 4 - 2 - 1 = 1: each of the four (e2=0, e3=1)
    # classes over index 12 has a trivial Aut and 3 faces, so 3 face orbits
    seen = 0
    for h in tf_classes(12):
        for _, sub in expand_classes(h):
            t = subgroup_type(sub)
            if (t.e2, t.e3) == (0, 1):
                r = rec_of(sub, h)
                assert len(reference_automorphisms(sub)) == 1
                assert len(cycles(sub.phi())) == 3
                assert lift_profile(r) == (3, 1)
                seen += 1
    assert seen == 4


def by_id(records, k6, rid):
    return next(r for r in records if r.id == rid and tf_index(r) == k6)


def test_star_orbit_count_on_torsion_records(full_catalog):
    # the six torsion records whose budget 4 - k - e3 is at least 1
    assert lift_profile(by_id(full_catalog, 6, "3,1-A")).one_to_one == 2
    assert lift_profile(by_id(full_catalog, 6, "2-A")).one_to_one == 1
    k2_e3_one = [r for r in full_catalog
                 if tf_index(r) == 12 and (r.e2, r.e3) == (0, 1)]
    assert len(k2_e3_one) == 4
    assert [lift_profile(r).one_to_one for r in k2_e3_one] == [3, 3, 3, 3]


def test_star_orbit_count_without_budget_walks_nothing(
        monkeypatch, full_catalog):
    # at budget 0 only the empty star set fits, below it none does, and
    # neither case decodes or walks the dessin
    def boom(h):
        raise AssertionError("the star rule walked a dessin")

    monkeypatch.setattr(lifts, "_automorphism_group", boom)
    seen = set()
    for r in full_catalog:
        k = tf_index(r) // 6
        budget = 4 - k - r.e3
        if r.e2 or k == 4 or budget > 0:
            continue
        assert lift_profile(r).one_to_one == (1 if budget == 0 else 0)
        seen.add((k, r.e3))
    assert {(2, 2), (3, 1), (2, 3), (3, 2)} <= seen


def test_the_double_cover_gives_the_stored_lift_pairs(full_catalog):
    # the cover and the stored pair part only at tf index 24 with e2 = 0
    # and e3 >= 1: a lift without -I holds a IV* at each sigma fixed point,
    # so its Euler number 24 + 6 e3 exceeds 24 and the cover gives (0, 1),
    # where lift_profile counts the one lift as 1:1.  Which split is right
    # is an open decision in ROADMAP.md; until then these 720 are counted.
    agree, open_split, other = 0, Counter(), []
    for r in full_catalog:
        cover, stored = cover_lift_pair(r), stored_lifts(r)
        if cover == stored:
            agree += 1
        elif (tf_index(r), r.e2, cover, stored) == (24, 0, (0, 1), (1, 0)):
            open_split[r.e3] += 1
        else:
            other.append((tf_index(r), r.id, cover, stored))
    assert other == []
    assert agree == 2508
    assert open_split == {1: 336, 2: 270, 3: 94, 4: 19, 5: 1}


def test_stratum_six():
    recs = stratum(6)
    assert len(recs) == 6
    assert sum(sum(lift_profile(r)) for r in recs) == 14
    profiles = sorted(lift_profile(r) for r in recs)
    assert profiles == [(0, 1), (0, 1), (1, 1), (2, 1), (2, 1), (3, 1)]


def test_stratum_twelve():
    recs = stratum(12)
    assert len(recs) == 28
    assert sum(sum(lift_profile(r)) for r in recs) == 69
    assert sum(lift_profile(r).one_to_one for r in recs) == 41
    assert sum(lift_profile(r).two_to_one for r in recs) == 28


def test_out_of_range():
    h = tf_classes(6)[0]
    good = rec_of(h, h)
    try:
        lift_profile(good._replace(genus=1))
        assert False
    except OutOfRange:
        pass
    try:
        lift_profile(good._replace(tf_code=bytes([30]).hex()))
        assert False
    except OutOfRange:
        pass
    try:
        lift_profile(good._replace(tf_code="09"))
        assert False
    except DomainError:
        pass


def test_totals_rejects_foreign_records():
    h = tf_classes(6)[0]
    bad = rec_of(h, h)._replace(tf_code=bytes([30]).hex())
    try:
        totals([bad])
        assert False
    except IncompleteCatalog:
        pass


def test_totals_rejects_missing_expansions():
    recs = stratum(6)
    try:
        totals(recs[:-1])
        assert False
    except IncompleteCatalog:
        pass
    try:
        totals(recs)       # complete at 6 but the 12-stratum is absent
        assert False
    except IncompleteCatalog:
        pass


def test_totals_rejects_a_swapped_duplicate(full_catalog):
    # drop one record over the [4,1,1] tf class and repeat another record of
    # the same class: every per-class count still matches
    recs = list(full_catalog)
    tf = next(r for r in recs if r.cusp_widths == [4, 1, 1] and r.index == 6)
    group = [r for r in recs if r.tf_code == tf.tf_code and r is not tf]
    recs.remove(group[0])
    recs.append(group[1])
    try:
        totals(recs)
        assert False, "totals counted a record twice"
    except ValidationError as exc:
        assert "appears twice" in str(exc)
