"""Reports, DOT export and the deep verify over a list of records.

Each report returns the lines of one table.  The lift counts it prints
are the stored ones, which the read proved, and only the k24 reports walk
a dessin, to its automorphisms.  Nothing here reads, builds or writes a
record, so this module imports nothing from modk3.catalog; the catalog
imports REPORTS, export_dot and verify_records, and the CLI finds them
there.  A record's cusp-width partition (_partition) is its id's label
here and in the catalog.
"""

import json

from . import lifts
from .errors import IncompleteCatalog, ValidationError
from .hypermap import _automorphism_group, cycles, group_label
from .lifts import STRATA, _decode, stored_lifts, tf_index
from .torsion import BLACK, KEEP, WHITE, loops, orbit_representatives


def _partition(rec):
    return ",".join(str(w) for w in rec.cusp_widths)


def _tf_groups(records, n):
    """(tf record, records over it) per tf class of index n, in first-seen
    order; a class without its own tf record is an IncompleteCatalog."""
    groups = {}
    for rec in records:
        if tf_index(rec) == n:
            groups.setdefault(rec.tf_code, []).append(rec)
    by_code = {r.canonical_code: r for r in records}
    for code, group in groups.items():
        if code not in by_code:
            raise IncompleteCatalog(f"{len(group)} records retract to tf code "
                                    f"{code}, which has no record of its own")
    return [(by_code[code], group) for code, group in groups.items()]


def report_tf_counts(records):
    """Class and subgroup counts of the torsion-free records per index."""
    rows = {}
    for rec in records:
        if rec.e2 == 0 and rec.e3 == 0 and rec.genus == 0:
            classes, rooted = rows.get(rec.index, (0, 0))
            rows[rec.index] = (classes + 1, rooted + rec.index // rec.aut_order)
    lines = ["index  classes  subgroups"]
    for n in sorted(rows):
        classes, rooted = rows[n]
        lines.append(f"{n:5d}  {classes:7d}  {rooted:9d}")
    return lines


def report_k6(records):
    """Every class retracting to index 6, with its stored lift counts."""
    rows = [r for r in records if tf_index(r) == 6]
    rows.sort(key=lambda r: r.canonical_code)
    lines = ["id       type (n;g,h,e2,e3)   widths   1:1  2:1"]
    total = 0
    for r in rows:
        one, two = stored_lifts(r)
        total += one + two
        t = f"({r.index};{r.genus},{r.h},{r.e2},{r.e3})"
        lines.append(f"{r.id:8s} {t:20s} {_partition(r):8s} {one:3d}  {two:3d}")
    lines.append(f"classes {len(rows)}  lifts {total}")
    return lines


def report_k12(records):
    """Torsion-class and stored lift counts per index-12 partition."""
    lines = ["partition  aut loops  e2>0 e3=1 e3=2 e3=3   1:1  2:1"]
    col = [0] * 6
    for tf, group in sorted(_tf_groups(records, 12),
                            key=lambda pair: pair[0].cusp_widths):
        e2pos = sum(1 for r in group if r.e2 > 0)
        e3c = {k: sum(1 for r in group if r.e2 == 0 and r.e3 == k)
               for k in (1, 2, 3)}
        profiles = [stored_lifts(r) for r in group]
        one = sum(p.one_to_one for p in profiles)
        two = sum(p.two_to_one for p in profiles)
        col = [c + v for c, v in
               zip(col, (e2pos, e3c[1], e3c[2], e3c[3], one, two))]
        lines.append(f"{_partition(tf):10s} {tf.aut_order:3d} {tf.loop_count:5d}"
                     f"  {e2pos:4d} {e3c[1]:4d} {e3c[2]:4d} {e3c[3]:4d}"
                     f"  {one:4d} {two:4d}")
    lines.append(f"{'totals':10s} {'':3s} {'':5s}  {col[0]:4d} {col[1]:4d}"
                 f" {col[2]:4d} {col[3]:4d}  {col[4]:4d} {col[5]:4d}")
    return lines


def report_k18(records):
    """Class counts per index-18 partition bucketed by torsion signature."""
    buckets = {}
    for tf, group in _tf_groups(records, 18):
        key = _partition(tf)
        b = buckets.setdefault(key, [0, 0, 0, 0])
        b[0] += 1
        b[1] += sum(1 for r in group if r.e2 > 0)
        b[2] += sum(1 for r in group if r.e2 == 0 and r.e3 == 1)
        b[3] += sum(1 for r in group if r.e2 == 0 and r.e3 >= 2)
    lines = ["partition       tf  e2>0  e3=1  e3>=2"]
    tot = [0, 0, 0, 0]
    for key in sorted(buckets, key=lambda k: [int(x) for x in k.split(",")]):
        b = buckets[key]
        tot = [a + x for a, x in zip(tot, b)]
        lines.append(f"{key:14s} {b[0]:3d} {b[1]:5d} {b[2]:5d} {b[3]:6d}")
    lines.append(f"{'totals':14s} {tot[0]:3d} {tot[1]:5d} {tot[2]:5d} {tot[3]:6d}")
    return lines


def report_k24(records):
    """Index-24 tf graphs by loop count and symmetry, each with its number
    of Aut-orbits of Keep/White/Black assignments (no assignment deletes
    every edge at index 24, so each orbit is a class); only the tf
    index-24 records are walked, each to its automorphisms."""
    rows = {}
    for rec in records:
        if tf_index(rec) != 24 or rec.e2 or rec.e3:
            continue
        h = _decode(rec)
        aut = _automorphism_group(h)
        label = "any" if rec.loop_count == 0 else group_label(aut)
        blocks = [(e,) for e in loops(h)]
        mult = sum(1 for _ in orbit_representatives(aut, blocks,
                                                    (KEEP, WHITE, BLACK)))
        key = (rec.loop_count, label)
        count, seen_mult = rows.get(key, (0, mult))
        if seen_mult != mult:
            raise ValidationError(f"symmetry bucket {key} has two mult "
                                  f"factors, {seen_mult} and {mult}")
        rows[key] = (count + 1, mult)
    lines = ["loops  symmetry  graphs  mult  classes"]
    total = 0
    for loops_, label in sorted(rows, key=lambda k: (k[0], -rows[k][1])):
        count, mult = rows[(loops_, label)]
        total += count * mult
        lines.append(f"{loops_:5d}  {label:8s}  {count:6d}  {mult:4d}  {count * mult:7d}")
    lines.append(f"stratum total {total}")
    return lines


def report_k24sym(records):
    """The loopy symmetric index-24 tf dessins with their partitions; only
    they are walked, each to its automorphisms."""
    picks = []
    for rec in records:
        if (tf_index(rec) == 24 and rec.e2 == 0 and rec.e3 == 0
                and rec.loop_count > 0 and rec.aut_order > 1):
            h = _decode(rec)
            label = group_label(_automorphism_group(h))
            picks.append((rec, label))
    lines = ["symmetry  loops  partition"]
    order = {"Z/2": 0, "Z/3": 1, "Z/2xZ/2": 2, "Z/4": 3}
    picks.sort(key=lambda p: (order.get(p[1], 9), p[0].loop_count,
                              p[0].cusp_widths))
    for rec, label in picks:
        lines.append(f"{label:8s}  {rec.loop_count:5d}  {_partition(rec)}")
    lines.append(f"total {len(picks)}")
    return lines


def report_totals(records):
    """Classes and stored lifts per stratum, once lifts.totals has found
    the catalog complete, so every record retracts into STRATA."""
    # looked up on lifts at each call, where a wrapper installed on
    # lifts.totals (bench/tracer.py) sees it
    lifts.totals(records)
    classes = dict.fromkeys(STRATA, 0)
    carried = dict.fromkeys(STRATA, 0)
    multi = []                  # the lift counts of the multi-lift classes
    for rec in records:
        n, count = tf_index(rec), sum(stored_lifts(rec))
        classes[n] += 1
        carried[n] += count
        if count != 1:
            multi.append(count)
    lines = ["stratum  classes  lifts"]
    lines += [f"{n:7d}  {classes[n]:7d}  {carried[n]:5d}" for n in STRATA]
    lines.append(f"total classes {len(records)}")
    lines.append(f"total lifts {sum(carried.values())}")
    lines.append(f"bijective {len(records) - len(multi)}")
    lines.append(f"multi-lift classes {len(multi)} carrying {sum(multi)} lifts")
    return lines


REPORTS = {"tf-counts": report_tf_counts, "k6": report_k6, "k12": report_k12,
           "k18": report_k18, "k24": report_k24, "k24sym": report_k24sym,
           "totals": report_totals}


# ---------------------------------------------------------------- dot export

def export_dot(records, rec_id):
    """DOT source for one record's dessin (white circles, black discs)."""
    matches = [r for r in records if r.id == rec_id]
    if not matches:
        raise ValidationError(f"no record with id {rec_id!r}")
    if len(matches) > 1:
        raise ValidationError(f"id {rec_id} names {len(matches)} records, "
                              f"so it does not pick one")
    rec = matches[0]
    h = _decode(rec)
    width_of = {}
    for face in cycles(h.phi()):
        for e in face:
            width_of[e] = len(face)
    # ids are unchecked: a JSON string escapes \ and " as a DOT one must
    name, label = (json.dumps(text, ensure_ascii=False) for text in
                   (rec.id, f"{rec.id}  widths=({_partition(rec)})"))
    lines = [f"graph {name} {{", f"  label={label};"]
    white_of = {}
    for i, cyc in enumerate(cycles(h.sigma)):
        lines.append(f"  w{i} [shape=circle];")
        for e in cyc:
            white_of[e] = i
    black_of = {}
    for i, cyc in enumerate(cycles(h.alpha)):
        lines.append(f"  b{i} [shape=circle, style=filled, fillcolor=black];")
        for e in cyc:
            black_of[e] = i
    for e in range(h.n):
        lines.append(f'  w{white_of[e]} -- b{black_of[e]} '
                     f'[label="{width_of[e]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- deep verify

SAMPLES = 1000


def verify_records(records):
    """Round-trip SAMPLES fixed-seed random matrices through their S/T
    words: the read that gave the records has rebuilt every stored field,
    so the work beyond it is constant.  Raises ValidationError on the
    first failure; returns a summary line."""
    import random

    from .slwords import eval_word, random_sl2, word_of_matrix

    rng = random.Random(20)
    for _ in range(SAMPLES):
        m = random_sl2(rng)
        word, sign = word_of_matrix(m)
        if eval_word(word) != (m if sign == 1 else -m):
            raise ValidationError(f"word round trip failed on {m}")
    return f"verified {len(records)} records and {SAMPLES} matrix samples"
