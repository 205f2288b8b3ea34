"""Search vs. oracle, known small counts, constraint handling."""

import inspect

from modk3 import catalog, generate
from modk3.counts import subgroup_counts
from modk3.errors import DomainError, ResourceBound
from modk3.generate import _classes_at, enumerate_classes
from modk3.hypermap import (
    automorphism_group, canonical_code, canonical_form, from_code,
    subgroup_type, validate,
)

from helpers import (
    brute_force_oracle, class_dessins, cusp_widths, rooted_count,
    search_leaf_count, tf_class_count,
)


def codes(index, **kw):
    return [canonical_code(h) for h in class_dessins(index, **kw)]


def test_index_one():
    hs = class_dessins(1)
    assert len(hs) == 1
    assert subgroup_type(hs[0]) == (1, 0, 1, 1, 1)


def test_all_results_validate():
    for n in range(1, 8):
        for h in class_dessins(n):
            validate(h)


def test_torsion_free_skips_non_multiples_of_six():
    assert codes(8, torsion_free=True) == []
    assert search_leaf_count(9, torsion_free=True) == 0
    assert brute_force_oracle(7, torsion_free=True) == []


def test_torsion_free_index_six():
    hs = class_dessins(6, genus=0, torsion_free=True)
    assert len(hs) == 2
    assert sorted(cusp_widths(h) for h in hs) == [(2, 2, 2), (4, 1, 1)]
    for h in hs:
        t = subgroup_type(h)
        assert t.e2 == 0 and t.e3 == 0 and t.g == 0
    # 6/2 + 6/6 subgroups across the two classes
    assert rooted_count(hs) == 4
    assert search_leaf_count(6, genus=0, torsion_free=True) == 4


def test_torsion_free_index_twelve():
    hs = class_dessins(12, genus=0, torsion_free=True)
    assert len(hs) == 6
    assert rooted_count(hs) == 32
    assert search_leaf_count(12, genus=0, torsion_free=True) == 32


def test_leaf_tally_matches_aut_bookkeeping():
    # the backtracker hits each subgroup once, so leaves == sum of n/|Aut|
    for n in range(1, 7):
        for tf in (False, True):
            leaves = search_leaf_count(n, torsion_free=tf)
            assert leaves == rooted_count(class_dessins(n, torsion_free=tf)), (n, tf)


def test_output_is_sorted_and_deterministic():
    a = codes(6)
    b = codes(6)
    assert a == b == sorted(a)
    assert len(set(a)) == len(a)


def test_constraint_validation():
    # the index is required and positional; genus and torsion_free are
    # keyword-only, so a bare 0 or True cannot land in the wrong one
    for fn in (enumerate_classes, catalog.enumerate_records, search_leaf_count):
        params = inspect.signature(fn).parameters
        assert list(params) == ["index", "genus", "torsion_free"], fn.__name__
        assert params["index"].default is inspect.Parameter.empty
        assert params["index"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for name, default in (("genus", None), ("torsion_free", False)):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is default
        for args in ((), (6, 0), (6, None, True)):
            try:
                fn(*args)
                assert False, f"{fn.__name__} accepted {args}"
            except TypeError:
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
                want = codes(n, genus=g, torsion_free=tf)
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
                codes = [code for code, _ in got]
                assert codes == sorted(set(codes)), (n, tf, g)
                for code, ties in got:
                    # the search's tie count is the canonical walk's |Aut|
                    assert canonical_code(from_code(code)) == code
                    assert len(canonical_form(from_code(code))[1]) == ties


def test_tf_genus_zero_leaves_are_the_rooted_planar_cubic_maps():
    # a torsion-free leaf has genus 0 iff it has n/6 + 2 faces, and those
    # leaves are the rooted planar cubic maps with n/3 vertices: A002005,
    # 2^(2k+1) (3k)!! / ((k+2)! k!!) for k = n/6 (Mullin-Tutte)
    for n, leaves, classes in ((6, 4, 2), (12, 32, 6), (18, 336, 26),
                               (24, 4096, 191)):
        got, kept = _classes_at(n, 0, True)
        assert (kept, len(got)) == (leaves, classes), n


TF_CLASSES = {6: 2, 12: 6, 18: 26, 24: 191}


def test_tf_class_counts_follow_from_the_catalogs_quotients(full_catalog):
    # Burnside over quotient dessins counts each class once, from the lower
    # strata's torsion records, which expansion builds, not the tf search
    quotients = [(r.index, r.h, r.e2, r.e3, r.aut_order)
                 for r in full_catalog if r.genus == 0]
    for n, want in TF_CLASSES.items():
        tf = [r for r in full_catalog if r.index == n and r.e2 == r.e3 == 0]
        assert tf_class_count(n, quotients) == len(tf) == want, n


def test_tf_class_counts_follow_from_enumerated_quotients():
    # the same identity with the quotients of index <= 12 from the search
    # over all genus-0 classes, not from the catalog's records
    quotients = []
    for m in range(1, 13):
        for h in class_dessins(m, genus=0):
            t = subgroup_type(h)
            quotients.append((m, t.h, t.e2, t.e3, len(automorphism_group(h))))
    for n, want in TF_CLASSES.items():
        assert tf_class_count(n, quotients) == want, n


def test_genus_filter_agrees_with_the_type_of_each_class():
    # the search reads a leaf's genus from its face count alone when it is
    # torsion-free and from its full type otherwise; both must keep exactly
    # the classes whose type has that genus
    for n, tf in [(n, False) for n in range(1, 10)] + [(6, True), (12, True)]:
        every = class_dessins(n, torsion_free=tf)
        for g in (0, 1):
            want = [h for h in every if subgroup_type(h).g == g]
            assert class_dessins(n, genus=g, torsion_free=tf) == want, (n, tf, g)
    # index 12 has torsion-free classes of genus 1, so the face-count test
    # meets a genus other than 0
    assert any(subgroup_type(h).g == 1
               for h in class_dessins(12, torsion_free=True))


def test_rooted_counts_match_hall_past_the_oracle():
    # Hall (1949): PSL(2,Z) = Z/2 * Z/3 has a_13 = 1729 and a_14 = 2198
    # subgroups of index 13 and 14, past ORACLE_MAX
    for n, want in ((13, 1729), (14, 2198)):
        assert rooted_count(class_dessins(n)) == want
        assert search_leaf_count(n) == want


def test_rooted_count_needs_one_index():
    mixed = class_dessins(2) + class_dessins(3)
    try:
        rooted_count(mixed)
        assert False, "rooted_count summed two indices"
    except DomainError:
        pass


def test_index_bounds():
    for n, err in ((0, DomainError), (-3, DomainError), (256, ResourceBound)):
        for fn in (enumerate_classes, search_leaf_count):
            try:
                fn(n)
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
                fn(genus=-1, **kw)
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
            leaves = search_leaf_count(n, torsion_free=tf)
            assert subgroup_counts(n, tf)[-1] == leaves, (n, tf)


def test_work_cap_is_checked_before_any_search(monkeypatch):
    def boom(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(generate, "_search", boom)
    for kw, leaves in (({"index": 36, "torsion_free": True}, 30220800),
                       ({"index": 23, "genus": 0}, 1118996)):
        for fn in (enumerate_classes, search_leaf_count):
            try:
                fn(**kw)
                assert False, f"{fn.__name__} accepted {kw}"
            except ResourceBound as exc:
                assert str(leaves) in str(exc)
