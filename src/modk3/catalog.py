"""Persistent catalog records, JSONL round trip, reports, DOT export.

One JSON object per line, fields in a fixed order, values all derivable
from the canonical code -- the rest of the record is denormalized for
grep-ability.  Every command reads through read_records, which checks
each stored field against its code, lift counts included: the code is
proved canonical against its own bytes, the rest is derived as the record
build derives it and compared.  A torsion record's tf code is checked by
an isomorphism test against its retraction, and each distinct tf code is
proved canonical once per read.  The reports then read the stored lift
counts, which the read has proved.  Records of one read_records,
enumerate_records or expand_records call share equal repeated values
through one table, a local of that call.
IDs are human-facing: cusp-width partition plus a letter counting classes
with that partition in canonical-code order ("4,1,1-A").
"""

import json
from collections import namedtuple

from .errors import (
    DomainError, IncompleteCatalog, Modk3Error, ParseError, ResourceBound,
    ValidationError,
)
from .generate import MAX_INDEX, MAX_LEAVES, enumerate_classes
from .hypermap import (
    _automorphism_group, _canonical_ties, _face_walk, _genus, _is_walk_code,
    canonical_form, cycles, from_code, validate,
)
from .lifts import _decode, lift_profile, stored_lifts, tf_index, totals
from .torsion import (
    BLACK, KEEP, WHITE, expand_classes, orbit_representatives, tf_retract,
)

FIELDS = ("id", "canonical_code", "index", "genus", "h", "e2", "e3",
          "cusp_widths", "aut_order", "loop_count", "tf_code", "assignment",
          "lift_one_to_one", "lift_two_to_one")

# immutable: _replace derives a changed copy; the lift counts default to None.
# Records of one command share equal list and dict values: never write them
DessinRecord = namedtuple("DessinRecord", FIELDS, defaults=(None, None))


def _derived_record(h, code, aut_order, retraction_code, shared):
    """The (id-less) record of the dessin h with canonical code `code`
    (bytes) and aut_order roots that tie it; unchecked.

    The type, cusp widths and loop count come from one pass of _face_walk.
    A torsion-free dessin is its own retraction, so its tf_code is its own
    code; only a torsion dessin's is asked of retraction_code(), which
    retracts it.  The record build and the read both derive a record here.
    shared, the command's table of repeated values, maps a canonical tf
    code to itself, a width tuple to its list and an assignment's items to
    its dict; the record takes its widths and assignment from it.
    """
    n = len(h.sigma)
    widths, e2, e3 = _face_walk(h)
    widths.sort(reverse=True)
    hex_code = code.hex()
    tf_code = retraction_code() if e2 or e3 else hex_code
    return DessinRecord(
        id=None,
        canonical_code=hex_code,
        index=n, genus=_genus(n, len(widths), e2, e3), h=len(widths),
        e2=e2, e3=e3,
        cusp_widths=shared.setdefault(tuple(widths), widths),
        aut_order=aut_order,
        loop_count=widths.count(1),
        tf_code=tf_code,
        assignment=shared.setdefault((("white", e3), ("black", e2)),
                                     {"white": e3, "black": e2}))


def _built_record(h, shared, tf_code=None):
    """The (id-less) record of h, which must be a dessin: it is not
    validated here.  Its code and aut_order, the number of roots that tie
    it, come from one canonical walk (canonical_form); only a torsion
    dessin is retracted and walked a second time, unless its tf_code is
    supplied.  Values repeated across the build are drawn from its table
    shared (see _derived_record), computed tf codes included."""
    code, roots = canonical_form(h)

    def retraction_code():
        tf = tf_code or canonical_form(tf_retract(h))[0].hex()
        return shared.setdefault(tf, tf)
    return _derived_record(h, code, len(roots), retraction_code, shared)


def _letters(i):
    """0 -> A, 25 -> Z, 26 -> AA, ... (bijective base 26)."""
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("A") + r) + out
    return out


def _partition(rec):
    return ",".join(str(w) for w in rec.cusp_widths)


def assign_ids(records):
    """Sort the list records by canonical code in place and replace each
    entry with its copy that carries its partition-plus-letter id; returns
    records.  Only list entries are replaced, so each old record is freed
    as its copy is made; the shared values the copies keep are never
    written."""
    records.sort(key=lambda r: r.canonical_code)
    counter = {}
    for i, rec in enumerate(records):
        label = _partition(rec)
        counter[label] = counter.get(label, 0) + 1
        records[i] = rec._replace(id=f"{label}-{_letters(counter[label] - 1)}")
    return records


# ----------------------------------------------------------------- JSONL io

def record_to_json(rec):
    return json.dumps(rec._asdict(), separators=(",", ":"))


_FIELD_SET = frozenset(FIELDS)
_INT_FIELDS = ("index", "genus", "h", "e2", "e3", "aut_order", "loop_count")


def _field_error(lineno, name, desc):
    return ParseError(f"line {lineno}: field {name!r} is not {desc}")


def _parse_record(obj, lineno, shared):
    """The record of one decoded JSON line, its field names and value types
    checked; the first fault in FIELDS order is a ParseError.  Its tf_code,
    if already proved, cusp_widths and assignment are drawn from the read's
    table of repeated values, shared (see _derived_record).

    json.loads makes only exact types, so type(v) is int tells an integer
    from a bool.
    """
    if type(obj) is not dict:
        raise ParseError(f"line {lineno}: record is not a JSON object")
    if obj.keys() != _FIELD_SET:
        unknown = [k for k in obj if k not in _FIELD_SET]
        if unknown:
            raise ParseError(f"line {lineno}: unknown field {unknown[0]!r}")
        missing = [k for k in FIELDS if k not in obj]
        raise ParseError(f"line {lineno}: missing field {missing[0]!r}")
    for name in _INT_FIELDS:
        if type(obj[name]) is not int:
            raise _field_error(lineno, name, "an integer")
    for name in ("id", "canonical_code", "tf_code"):
        if type(obj[name]) is not str:
            raise _field_error(lineno, name, "a string")
    widths = obj["cusp_widths"]
    if type(widths) is not list or not all(type(w) is int for w in widths):
        raise _field_error(lineno, "cusp_widths", "a list of integers")
    counts = obj["assignment"]
    if (type(counts) is not dict or counts.keys() != {"white", "black"}
            or not all(type(v) is int for v in counts.values())):
        raise _field_error(lineno, "assignment", "a {white, black} count object")
    for name in ("lift_one_to_one", "lift_two_to_one"):
        if obj[name] is not None and type(obj[name]) is not int:
            raise _field_error(lineno, name, "an integer or null")
    obj["tf_code"] = shared.get(obj["tf_code"], obj["tf_code"])
    obj["cusp_widths"] = shared.setdefault(tuple(widths), widths)
    obj["assignment"] = shared.setdefault(tuple(counts.items()), counts)
    return DessinRecord._make([obj[name] for name in FIELDS])


def _checked_tf_code(retract, stored, shared):
    """The hex tf code of a torsion dessin whose retraction is retract:
    stored itself if it passes, else the canonical code that the record
    build would derive.

    stored passes when a candidate root of retract walks to its bytes (an
    isomorphism test, which also makes them the code of a dessin, so they
    need no validate) and they are proved canonical (_canonical_ties) in
    their lower-case hex, once per distinct string: the strings proved are
    the string keys of the read's table shared, which hands out one object
    of each.  A retraction past MAX_INDEX edges has no code and is a
    DomainError.
    """
    if retract.n > MAX_INDEX:
        raise DomainError(f"its retraction has {retract.n} edges, more than "
                          f"the {MAX_INDEX} a code's index byte holds")
    try:
        code = bytes.fromhex(stored)
    except ValueError:
        code = b""
    if _is_walk_code(retract, code) and (stored in shared or (
            code.hex() == stored and _canonical_ties(from_code(code), code))):
        return shared.setdefault(stored, stored)
    return canonical_form(retract)[0].hex()


def validate_record(rec, shared):
    """Check every field but id of the record against its canonical code.

    The stored code is proved the canonical lower-case hex code of a
    dessin against its own bytes (_canonical_ties), which gives aut_order
    too; a relabelled or upper-case copy is refused, and only then is the
    code it should be derived (canonical_form), to name it.  The other
    fields are derived from the code as the record build derives them and
    compared in FIELDS order, so the first that differs is named.  A
    torsion record's tf_code is checked by an isomorphism test against its
    retraction, and its canonicity once per distinct tf code: the string
    keys of shared, the read's table of repeated values, are the tf codes
    proved so far.  A record that stores any lift count must store the pair
    the lift rules give, so counts on a class outside the K3 range are
    refused too.
    """
    def bad(msg):
        raise ValidationError(f"record {rec.id or rec.canonical_code[:8]}: {msg}")

    try:
        code = bytes.fromhex(rec.canonical_code)
        h = validate(from_code(code))
        ties = _canonical_ties(h, code)
        if not ties:             # refused below; the walk names the code
            code, roots = canonical_form(h)
            ties = len(roots)
        want = _derived_record(h, code, ties, lambda: _checked_tf_code(
            tf_retract(h), rec.tf_code, shared), shared)
    except (Modk3Error, ValueError) as exc:
        bad(f"canonical_code does not rebuild a record ({exc})")
    lift_pair = (None, None)
    if rec.lift_one_to_one is not None or rec.lift_two_to_one is not None:
        try:
            lift_pair = lift_profile(want)
        except Modk3Error as exc:
            bad(f"stores lift counts, but the lift rules give none ({exc})")
    derived = want[1:-2] + lift_pair      # FIELDS but id, lift pair last
    if rec[1:] != derived:
        for name, got, value in zip(FIELDS[1:], rec[1:], derived):
            if got != value:
                bad(f"{name} is {got!r}, the code gives {value!r}")
    return rec


def read_records(path):
    """Parse and validate a JSONL catalog, the one read path of every command.

    The work is linear in the lines, each record O(n x candidate roots)
    with n <= 255.  Blank lines are skipped.  A line that is not JSON (too
    deeply nested or holding an integer past the digit limit included), an
    unknown field
    or a canonical code already seen on an earlier line is a ParseError; a
    record that validate_record refuses is a ValidationError; both name
    the line.  One table of repeated values, a local of this call, serves
    the whole read: each distinct tf code is proved once, and records
    share one object of each equal tf_code, cusp_widths and assignment.
    """
    records = []
    first_line = {}
    shared = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError is a ValueError, and so is an integer
                # past the interpreter's digit limit; deep nesting recurses
                raise ParseError(f"line {lineno}: invalid JSON "
                                 f"({getattr(exc, 'msg', exc)})")
            rec = _parse_record(obj, lineno, shared)
            first = first_line.setdefault(rec.canonical_code, lineno)
            if first != lineno:
                raise ParseError(f"line {lineno}: canonical_code repeats line {first}")
            try:
                validate_record(rec, shared)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}")
            records.append(rec)
    return records


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


# ------------------------------------------------------------ catalog build

def enumerate_records(index, *, genus=None, torsion_free=False):
    shared = {}
    records = [_built_record(h, shared) for h in enumerate_classes(
        index, genus=genus, torsion_free=torsion_free)]
    return assign_ids(records)


def expand_records(tf_records):
    """K-stratum records over torsion-free inputs (which must be tf, genus 0).

    The expansion of a class with L loops tries all 3^L Keep/White/Black
    assignments, so the work is predicted from the read's loop counts:
    inputs whose sum of 3^loop_count is over MAX_LEAVES are refused with
    ResourceBound before any substitution.
    """
    for rec in tf_records:
        if rec.e2 or rec.e3 or rec.genus:
            raise ValidationError(
                f"record {rec.id}: expansion input must be torsion-free genus 0")
    work = sum(3 ** rec.loop_count for rec in tf_records)
    if work > MAX_LEAVES:
        raise ResourceBound(f"expanding {len(tf_records)} records tries {work} "
                            f"loop assignments, over the bound of {MAX_LEAVES}")
    out = []
    shared = {}
    for rec in tf_records:
        for _, sub in expand_classes(_decode(rec)):
            out.append(_built_record(sub, shared, rec.canonical_code))
    return assign_ids(out)


def add_lift_fields(records):
    """Replace each entry of the list records with its copy that carries
    the lift counts lift_profile gives; returns records.  As in assign_ids,
    only list entries are replaced and shared values are never written.
    A class the lift rules refuse raises midway, so a caller that writes
    the records writes them only once this returns."""
    for i, rec in enumerate(records):
        one, two = lift_profile(rec)
        records[i] = rec._replace(lift_one_to_one=one, lift_two_to_one=two)
    return records


# ------------------------------------------------------------------ reports

def group_label(elements):
    """Name the automorphism group from its elements (tiny orders only)."""
    order = len(elements)
    if order in (1, 2, 3):
        return ("trivial", "Z/2", "Z/3")[order - 1]

    def element_order(psi):
        k, acc = 1, psi
        ident = tuple(range(len(psi)))
        while acc != ident:
            acc = tuple(psi[x] for x in acc)
            k += 1
        return k

    orders = sorted(element_order(psi) for psi in elements)
    if order == 4:
        return "Z/4" if 4 in orders else "Z/2xZ/2"
    if order == 6:
        return "Z/6" if 6 in orders else "S3"
    if order == 12 and max(orders) == 3:
        return "A4"
    return f"order-{order}"


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
        label = "any" if rec.loop_count == 0 else group_label(aut.elements)
        mult = sum(1 for _ in orbit_representatives(aut.loop_action,
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
            label = group_label(_automorphism_group(h).elements)
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
    summary = totals(records)
    lines = ["stratum  classes  lifts"]
    for n in (6, 12, 18, 24):
        lines.append(f"{n:7d}  {summary.classes_by_index.get(n, 0):7d}"
                     f"  {summary.lifts_by_index.get(n, 0):5d}")
    lines.append(f"total classes {summary.total_classes}")
    lines.append(f"total lifts {summary.total_lifts}")
    lines.append(f"bijective {summary.bijective_classes}")
    lines.append(f"multi-lift classes {summary.multi_classes} "
                 f"carrying {summary.multi_lifts} lifts")
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
