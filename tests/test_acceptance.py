"""End-to-end acceptance: every headline count rebuilt from scratch.

One test per criterion; each prints a single PASS line with its timing.
All expected values are exact integers -- no tolerances anywhere.
"""

import itertools
import time
from collections import Counter

from modk3 import catalog, reports
from modk3.errors import DegenerateSubstitution
from modk3.hypermap import (
    Hypermap, automorphism_group, canonical_code, cycles, from_code,
    subgroup_type,
)
from modk3.slwords import coset_action
from modk3.torsion import BLACK, substitute, tf_retract

from helpers import (
    block_action, brute_force_oracle, burnside_count, class_dessins,
    corollary_euler, cycle_type, loop_blocks, minimal_euler,
    minimal_euler_tf, perm_from_cycles, rooted_count, white_vertex_types,
    word_perm,
)

TF_COUNTS = {6: (2, 4), 12: (6, 32), 18: (26, 336), 24: (191, 4096)}

INDEX12_AUT = {"3,3,3,3": 12, "4,4,2,2": 4, "5,5,1,1": 2,
               "6,3,2,1": 1, "8,2,1,1": 2, "9,1,1,1": 3}

# automorphism-group orders of the 26 index-18 classes, keyed by partition
INDEX18_AUT = {
    "14,1,1,1,1": [2], "13,2,1,1,1": [1], "12,3,1,1,1": [3],
    "12,2,2,1,1": [2], "11,3,2,1,1": [1], "10,5,1,1,1": [1],
    "10,4,2,1,1": [1], "10,3,3,1,1": [2], "10,3,2,2,1": [1],
    "9,6,1,1,1": [1], "9,5,2,1,1": [1], "8,5,2,2,1": [1],
    "8,4,3,2,1": [1], "8,3,3,2,2": [2], "7,7,2,1,1": [2, 2],
    "7,6,3,1,1": [1], "7,5,3,2,1": [1], "7,4,3,3,1": [1],
    "6,6,4,1,1": [2], "6,6,2,2,2": [6], "6,5,5,1,1": [2],
    "6,5,4,2,1": [1], "6,4,4,2,2": [2], "5,5,3,3,2": [2],
    "4,4,4,3,3": [6]}

STRATA_CLASSES = {6: 6, 12: 28, 18: 232, 24: 2962}
STRATA_LIFTS = {6: 14, 12: 69, 18: 366, 24: 2962}

# per-partition torsion class counts at index 12: (e2>0, e3=1, e3=2, e3=3)
TORSION12_CELLS = {"3,3,3,3": (0, 0, 0, 0), "4,4,2,2": (0, 0, 0, 0),
                "5,5,1,1": (3, 1, 1, 0), "6,3,2,1": (1, 1, 0, 0),
                "8,2,1,1": (3, 1, 1, 0), "9,1,1,1": (7, 1, 1, 1)}

# (loops, symmetry, substitution multiplicity, graph count) at index 24
LOOP24_CENSUS = {(0, "any", 1, 20), (1, "trivial", 3, 45),
               (2, "trivial", 9, 53), (2, "Z/2", 6, 18),
               (3, "trivial", 27, 39), (3, "Z/3", 11, 1),
               (4, "trivial", 81, 9), (4, "Z/2", 45, 3),
               (4, "Z/2xZ/2", 27, 1), (4, "Z/4", 24, 1),
               (5, "trivial", 243, 1)}


def _tf_index(rec):
    return bytes.fromhex(rec.tf_code)[0]


def _partition(rec):
    return ",".join(str(w) for w in rec.cusp_widths)


def test_criterion_1_torsion_free_counts():
    t0 = time.time()
    for n, (n_classes, n_rooted) in TF_COUNTS.items():
        t1 = time.time()
        classes = class_dessins(n, genus=0, torsion_free=True)
        dt = time.time() - t1
        assert len(classes) == n_classes, (n, len(classes))
        assert rooted_count(classes) == n_rooted, n
        assert dt < (900 if n == 24 else 10), f"index {n} took {dt:.1f}s"
    print(f"PASS criterion 1 - tf classes 2/6/26/191, rooted 4/32/336/4096 "
          f"({time.time() - t0:.1f}s)")


def test_criterion_2_partitions_and_symmetries(full_catalog):
    t0 = time.time()
    cat = full_catalog
    tf12 = [r for r in cat if r.index == 12 and r.e2 == 0 and r.e3 == 0]
    assert {_partition(r): r.aut_order for r in tf12} == INDEX12_AUT
    assert len(tf12) == 6
    tf18 = [r for r in cat if r.index == 18 and r.e2 == 0 and r.e3 == 0]
    assert len(tf18) == 26
    seen = {}
    for r in tf18:
        seen.setdefault(_partition(r), []).append(r.aut_order)
    assert {k: sorted(v) for k, v in seen.items()} == INDEX18_AUT
    print(f"PASS criterion 2 - index-12 and index-18 partitions with "
          f"symmetry orders ({time.time() - t0:.1f}s)")


def test_cusp_widths_match_the_classical_lists(full_catalog):
    # the I_n fibres of a semistable elliptic surface are the cusp widths
    # of its j-map's monodromy, a tf genus-0 class: index 6 gives Gamma(2)
    # and Gamma0(4), index 12 Beauville's six surfaces with four singular
    # fibres (1982), index 24 the 112 configurations of extremal
    # semistable K3 surfaces (Miranda-Persson 1989); index 18 has no list
    parts = {}
    for r in full_catalog:
        if r.e2 == 0 and r.e3 == 0:
            parts.setdefault(r.index, []).append(tuple(r.cusp_widths))
    assert set(parts[6]) == {(2, 2, 2), (4, 1, 1)}
    assert set(parts[12]) == {(9, 1, 1, 1), (8, 2, 1, 1), (5, 5, 1, 1),
                              (6, 3, 2, 1), (4, 4, 2, 2), (3, 3, 3, 3)}
    assert len(parts[24]) == 191
    assert len(set(parts[24])) == 112
    assert {len(p) for p in parts[24]} == {6}


def test_criterion_3_strata_and_torsion_tables(full_catalog):
    t0 = time.time()
    cat = full_catalog
    by_stratum = Counter(_tf_index(r) for r in cat)
    assert dict(by_stratum) == STRATA_CLASSES
    assert len(cat) == 3228

    cells = {}
    for r in cat:
        if _tf_index(r) != 12:
            continue
        part = _partition(next(s for s in cat
                               if s.canonical_code == r.tf_code))
        c = cells.setdefault(part, [0, 0, 0, 0])
        if r.e2 > 0:
            c[0] += 1
        elif 1 <= r.e3 <= 3:
            c[r.e3] += 1
    assert {k: tuple(v) for k, v in cells.items()} == TORSION12_CELLS
    sums = [sum(v[i] for v in TORSION12_CELLS.values()) for i in range(4)]
    assert sums == [14, 4, 3, 1]

    k18 = [r for r in cat if _tf_index(r) == 18]
    col = (sum(1 for r in k18 if r.e2 == 0 and r.e3 == 0),
           sum(1 for r in k18 if r.e2 > 0),
           sum(1 for r in k18 if r.e2 == 0 and r.e3 == 1),
           sum(1 for r in k18 if r.e2 == 0 and r.e3 >= 2))
    assert col == (26, 143, 32, 31)
    print(f"PASS criterion 3 - strata 6/28/232/2962 (3228 total), "
          f"index-12 and index-18 torsion tables ({time.time() - t0:.1f}s)")


def test_criterion_4_index24_loops_and_symmetries(full_catalog):
    t0 = time.time()
    cat = full_catalog
    tf24 = [r for r in cat if r.index == 24 and r.e2 == 0 and r.e3 == 0]
    assert len(tf24) == 191

    rows = {}
    loopy_sym = []
    for r in tf24:
        h = from_code(bytes.fromhex(r.canonical_code))
        aut = automorphism_group(h)
        label = reports.group_label(aut)
        mult = burnside_count(block_action(aut, loop_blocks(h)), 3)
        key = (r.loop_count, "any" if r.loop_count == 0 else label)
        count, old = rows.get(key, (0, mult))
        assert old == mult
        rows[key] = (count + 1, mult)
        if r.loop_count > 0 and len(aut) > 1:
            loopy_sym.append((label, r.loop_count, _partition(r)))
    assert {(k[0], k[1], m, c) for k, (c, m) in rows.items()} == LOOP24_CENSUS
    assert sum(c for c, _ in rows.values()) == 191
    assert sum(c * m for c, m in rows.values()) == 2962

    assert len(loopy_sym) == 24
    buckets = Counter((label, loops) for label, loops, _ in loopy_sym)
    assert buckets == {("Z/2", 2): 18, ("Z/2", 4): 3, ("Z/3", 3): 1,
                       ("Z/2xZ/2", 4): 1, ("Z/4", 4): 1}
    special = sorted(p for label, loops, p in loopy_sym
                     if (label, loops) != ("Z/2", 2))
    assert special == ["10,10,1,1,1,1", "10,10,1,1,1,1", "10,10,1,1,1,1",
                       "16,4,1,1,1,1", "18,2,1,1,1,1", "7,7,7,1,1,1"]
    print(f"PASS criterion 4 - index-24 loop/symmetry census and the 24 "
          f"loopy symmetric dessins ({time.time() - t0:.1f}s)")


def test_criterion_5_lift_totals(full_catalog):
    t0 = time.time()
    cat = full_catalog
    lifts_by = Counter()
    for r in cat:
        lifts_by[_tf_index(r)] += r.lift_one_to_one + r.lift_two_to_one
    assert dict(lifts_by) == STRATA_LIFTS
    assert sum(lifts_by.values()) == 3411

    k12 = [r for r in cat if _tf_index(r) == 12]
    assert sum(r.lift_one_to_one for r in k12) == 41
    assert sum(r.lift_two_to_one for r in k12) == 28

    # the index-18 lift total, split the way the classes are
    k18 = [r for r in cat if _tf_index(r) == 18]
    split = [sum(r.lift_one_to_one + r.lift_two_to_one for r in k18 if cond(r))
             for cond in (lambda r: r.e2 == 0 and r.e3 == 0,
                          lambda r: r.e2 > 0,
                          lambda r: r.e2 == 0 and r.e3 == 1,
                          lambda r: r.e2 == 0 and r.e3 >= 2)]
    assert split == [128, 143, 64, 31] and sum(split) == 366

    per_class = [r.lift_one_to_one + r.lift_two_to_one for r in cat]
    assert min(per_class) == 1
    multi = [k for k in per_class if k >= 2]
    assert len(multi) == 75 and sum(multi) == 258
    assert per_class.count(1) == 3153
    print(f"PASS criterion 5 - lifts 14/69/366/2962 (3411 total), 41/28 at "
          f"index 12, 75 multi-lift classes with 258 ({time.time() - t0:.1f}s)")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    for n in range(1, 9):
        for torsion_free, genus in itertools.product((False, True), (None, 0)):
            got = [canonical_code(h) for h in class_dessins(
                n, genus=genus, torsion_free=torsion_free)]
            want = brute_force_oracle(n, genus_filter=genus,
                                      torsion_free=torsion_free)
            assert got == want, (n, torsion_free, genus)
    dt = time.time() - t0
    assert dt < 120, f"oracle sweep took {dt:.1f}s"
    print(f"PASS criterion 6 - oracle equals search for all n <= 8 ({dt:.1f}s)")


def test_criterion_7_invariant_suite(full_catalog):
    t0 = time.time()
    cat = full_catalog
    tf_ids = {}
    for rec in cat:
        h = from_code(bytes.fromhex(rec.canonical_code))
        t = subgroup_type(h)                      # integrality asserted inside
        assert (t.n, t.g, t.h, t.e2, t.e3) == (
            rec.index, rec.genus, rec.h, rec.e2, rec.e3)
        assert sum(rec.cusp_widths) == rec.index
        assert rec.e2 % 2 == rec.index % 2
        assert rec.e3 % 3 == rec.index % 3
        k6 = _tf_index(rec)
        assert rec.index + 3 * rec.e2 + 2 * rec.e3 == k6
        assert rec.e2 + rec.e3 <= k6 // 6 + 1
        assert canonical_code(tf_retract(h)).hex() == rec.tf_code
        if rec.e2 == 0 and rec.e3 == 0:
            tf_ids[rec.canonical_code] = rec.id

        aut = automorphism_group(h)
        types = white_vertex_types(h)
        for psi in aut[1:]:
            for cyc, trip in types.items():
                if {psi[e] for e in cyc} == set(cyc):
                    assert len(aut) % 3 == 0, rec.id
                    assert trip[0] == trip[1] == trip[2], rec.id

    # each tf class carries one record per Aut-orbit of its Keep/White/Black
    # assignments, short of exactly one degeneration
    over = Counter(rec.tf_code for rec in cat)
    assert len(tf_ids) == 225 and set(over) == set(tf_ids)
    mismatches = {}
    for code, rec_id in tf_ids.items():
        h = from_code(bytes.fromhex(code))
        orbits = burnside_count(
            block_action(automorphism_group(h), loop_blocks(h)), 3)
        if orbits != over[code]:
            mismatches[rec_id] = (orbits, over[code])
    assert mismatches == {"4,1,1-A": (6, 5)}
    w411 = perm_from_cycles(6, (0, 2, 1), (3, 5, 4)), perm_from_cycles(
        6, (1, 2), (0, 3), (4, 5))
    try:
        substitute(Hypermap(*w411), (BLACK, BLACK))
        assert False, "double-black on [4,1,1] should delete every edge"
    except DegenerateSubstitution:
        pass
    print(f"PASS criterion 7 - invariant suite over all 3228 classes "
          f"({time.time() - t0:.1f}s)")


def test_criterion_8_word_statistics(full_catalog):
    t0 = time.time()
    cat = full_catalog
    catalog.verify_records(cat)
    for rec in cat:
        h = from_code(bytes.fromhex(rec.canonical_code))
        perm_s, perm_t = coset_action(h)
        perm_u = word_perm(h, ["S", "T"])
        assert tuple(perm_u) == tuple(h.sigma)
        assert sum(1 for e in range(h.n) if perm_s[e] == e) == rec.e2
        assert sum(1 for e in range(h.n) if perm_u[e] == e) == rec.e3
        assert len(cycles(perm_t)) == rec.h
        assert list(cycle_type(perm_t)) == list(rec.cusp_widths)
    dt = time.time() - t0
    assert dt < 60, f"word statistics took {dt:.1f}s"
    print(f"PASS criterion 8 - 1000 word round trips and coset statistics "
          f"for every class ({dt:.1f}s)")


def test_criterion_9_euler_numbers(full_catalog):
    t0 = time.time()
    cat = full_catalog
    for rec in cat:
        k6 = _tf_index(rec)
        want = k6 if k6 % 12 == 0 else k6 + 6
        assert minimal_euler(rec) == want
        assert minimal_euler_tf(k6) == want
        stars = 0 if k6 % 12 == 0 else 1
        assert corollary_euler(stars, rec.index, rec.e2, rec.e3) == want
    print(f"PASS criterion 9 - minimal Euler numbers via the divisibility "
          f"rule and the corollary formula ({time.time() - t0:.1f}s)")
