"""Search vs. oracle, known small counts, constraint handling."""

from modk3 import generate
from modk3.counts import subgroup_counts
from modk3.errors import DomainError, ResourceBound
from modk3.generate import (
    EnumerationConstraints, _classes_at, brute_force_oracle,
    enumerate_classes, rooted_count, search_leaf_count,
)
from modk3.hypermap import (
    canonical_code, cusp_widths, from_code, subgroup_type, validate,
)


def codes(**kw):
    return [canonical_code(h) for h in enumerate_classes(EnumerationConstraints(**kw))]


def test_index_one():
    hs = enumerate_classes(EnumerationConstraints(index=1))
    assert len(hs) == 1
    assert subgroup_type(hs[0]) == (1, 0, 1, 1, 1)


def test_all_results_validate():
    for n in range(1, 8):
        for h in enumerate_classes(EnumerationConstraints(index=n)):
            validate(h)


def test_torsion_free_skips_non_multiples_of_six():
    assert codes(index=8, torsion_free=True) == []
    assert search_leaf_count(EnumerationConstraints(index=9, torsion_free=True)) == 0
    assert brute_force_oracle(7, torsion_free=True) == []


def test_torsion_free_index_six():
    cs = EnumerationConstraints(index=6, torsion_free=True, genus_filter=0)
    hs = enumerate_classes(cs)
    assert len(hs) == 2
    assert sorted(cusp_widths(h) for h in hs) == [(2, 2, 2), (4, 1, 1)]
    for h in hs:
        t = subgroup_type(h)
        assert t.e2 == 0 and t.e3 == 0 and t.g == 0
    # 6/2 + 6/6 subgroups across the two classes
    assert rooted_count(hs) == 4
    assert search_leaf_count(cs) == 4


def test_torsion_free_index_twelve():
    cs = EnumerationConstraints(index=12, torsion_free=True, genus_filter=0)
    hs = enumerate_classes(cs)
    assert len(hs) == 6
    assert rooted_count(hs) == 32
    assert search_leaf_count(cs) == 32


def test_leaf_tally_matches_aut_bookkeeping():
    # the backtracker hits each subgroup once, so leaves == sum of n/|Aut|
    for n in range(1, 7):
        for tf in (False, True):
            cs = EnumerationConstraints(index=n, torsion_free=tf)
            assert search_leaf_count(cs) == rooted_count(enumerate_classes(cs)), (n, tf)


def test_output_is_sorted_and_deterministic():
    a = codes(index=6)
    b = codes(index=6)
    assert a == b == sorted(a)
    assert len(set(a)) == len(a)


def test_constraint_validation():
    try:
        enumerate_classes(EnumerationConstraints())
        assert False
    except ValueError:
        pass
    try:
        search_leaf_count(EnumerationConstraints())
        assert False
    except ValueError:
        pass


def test_oracle_refuses_large_index():
    try:
        brute_force_oracle(13)
        assert False
    except ResourceBound:
        pass


def test_oracle_matches_search_small():
    # the acceptance suite runs the full n <= 8 grid; keep a quick version here
    for n in range(1, 8):
        for tf in (False, True):
            for g in (None, 0):
                want = codes(index=n, torsion_free=tf, genus_filter=g)
                if tf and n % 6 != 0:
                    assert want == []
                    continue
                got = brute_force_oracle(n, genus_filter=g, torsion_free=tf)
                assert got == want, (n, tf, g)


def test_classes_at_keeps_each_class_once():
    for n in range(1, 11):
        for tf in (False, True):
            for g in (None, 0):
                got, _ = _classes_at(n, g, tf)
                assert got == sorted(set(got)), (n, tf, g)
                assert all(canonical_code(from_code(c)) == c for c in got)


def test_rooted_counts_match_hall_past_the_oracle():
    # Hall (1949): PSL(2,Z) = Z/2 * Z/3 has a_13 = 1729 and a_14 = 2198
    # subgroups of index 13 and 14, past ORACLE_MAX
    for n, want in ((13, 1729), (14, 2198)):
        cs = EnumerationConstraints(index=n)
        assert rooted_count(enumerate_classes(cs)) == want
        assert search_leaf_count(cs) == want


def test_rooted_count_needs_one_index():
    mixed = (enumerate_classes(EnumerationConstraints(index=2))
             + enumerate_classes(EnumerationConstraints(index=3)))
    try:
        rooted_count(mixed)
        assert False, "rooted_count summed two indices"
    except DomainError:
        pass


def test_index_bounds():
    for n, err in ((0, DomainError), (-3, DomainError), (256, ResourceBound)):
        for fn in (enumerate_classes, search_leaf_count):
            try:
                fn(EnumerationConstraints(index=n))
                assert False, f"{fn.__name__} accepted index={n}"
            except err:
                pass


def test_negative_genus_is_refused_before_any_search(monkeypatch):
    def boom(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(generate, "_search", boom)
    for kw in ({"index": 6}, {"index": 6, "torsion_free": True},
               {"index": 8, "torsion_free": True}):
        for fn in (enumerate_classes, search_leaf_count):
            try:
                fn(EnumerationConstraints(genus_filter=-1, **kw))
                assert False, f"{fn.__name__} accepted genus -1 with {kw}"
            except DomainError as exc:
                assert "genus" in str(exc)


def test_hall_counts_predict_the_search_leaves():
    # Hall (1949) for Z/2 * Z/3: the leaf counts the bench pins, and the
    # two sides of the work cap
    assert subgroup_counts(24, torsion_free=True)[-1] == 27120
    assert subgroup_counts(30, torsion_free=True)[-1] == 828250
    assert subgroup_counts(36, torsion_free=True)[-1] == 30220800
    assert subgroup_counts(17)[-1] == 17034
    assert max(subgroup_counts(22)) <= generate.MAX_LEAVES < subgroup_counts(23)[-1]
    assert subgroup_counts(30, torsion_free=True)[-1] <= generate.MAX_LEAVES
    for n in range(1, 9):
        for tf in (False, True):
            cs = EnumerationConstraints(index=n, torsion_free=tf)
            assert subgroup_counts(n, tf)[-1] == search_leaf_count(cs), (n, tf)


def test_work_cap_is_checked_before_any_search(monkeypatch):
    def boom(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(generate, "_search", boom)
    for kw, leaves in (({"index": 36, "torsion_free": True}, 30220800),
                       ({"index": 23, "genus_filter": 0}, 1118996)):
        for fn in (enumerate_classes, search_leaf_count):
            try:
                fn(EnumerationConstraints(**kw))
                assert False, f"{fn.__name__} accepted {kw}"
            except ResourceBound as exc:
                assert str(leaves) in str(exc)
