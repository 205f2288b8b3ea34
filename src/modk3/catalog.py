"""Persistent catalog records, their build and the JSONL round trip.

One JSON object per line, fields in a fixed order, values all derivable
from the canonical code -- the rest of the record is denormalized for
grep-ability.  Every command reads through read_records, which checks
each stored field against its code, lift counts included: the code is
proved canonical against its own bytes, the rest is derived as the record
build derives it and compared.  A torsion record's tf code is checked by
an isomorphism test against its retraction, and each distinct code, own
or tf, is proved canonical once per read.  The reports then read the
stored lift counts, which the read has proved.  Records of one
read_records, enumerate_records or expand_records call share equal
repeated values through one table, a local of that call.
IDs are human-facing: cusp-width partition plus a letter counting classes
with that partition in canonical-code order ("4,1,1-A").  The reports,
DOT export and deep verify live in modk3.reports; the commands reach them
through this module.
"""

import json
from collections import namedtuple

from .errors import (
    DomainError, Modk3Error, ParseError, ResourceBound, ValidationError,
)
from .generate import MAX_INDEX, MAX_LEAVES, enumerate_classes
from .hypermap import (
    _canonical_ties, _face_walk, _genus, _is_walk_code, canonical_form,
    from_code, validate,
)
from .lifts import _decode, lift_profile
from .reports import REPORTS, _partition, export_dot, verify_records
from .torsion import expand_classes, tf_retract

FIELDS = ("id", "canonical_code", "index", "genus", "h", "e2", "e3",
          "cusp_widths", "aut_order", "loop_count", "tf_code", "assignment",
          "lift_one_to_one", "lift_two_to_one")

# immutable: _replace derives a changed copy; the lift counts default to None.
# Records of one command share equal list and dict values: never write them
DessinRecord = namedtuple("DessinRecord", FIELDS, defaults=(None, None))


def _derived_record(h, code, aut_order, tf_code, shared):
    """The (id-less) record of the dessin h with canonical code `code`
    (bytes) and aut_order roots that tie it; unchecked.

    The type, cusp widths and loop count come from one pass of _face_walk.
    A torsion-free dessin is its own retraction, so its tf_code is its own
    code; only a torsion dessin's is asked of tf_code(h): retract and walk
    for enumerate, the parent's code for expand, _checked_tf_code for the
    read.  shared, the command's table of repeated values, maps a tf code
    to itself, a width tuple to its list and an assignment's items to its
    dict; the record takes these values from it.
    """
    n = len(h.sigma)
    widths, e2, e3 = _face_walk(h)
    widths.sort(reverse=True)
    hex_code = code.hex()
    if e2 or e3:
        tf = tf_code(h)
        tf = shared.setdefault(tf, tf)
    else:
        tf = hex_code
    return DessinRecord(
        id=None,
        canonical_code=hex_code,
        index=n, genus=_genus(n, len(widths), e2, e3), h=len(widths),
        e2=e2, e3=e3,
        cusp_widths=shared.setdefault(tuple(widths), widths),
        aut_order=aut_order,
        loop_count=widths.count(1),
        tf_code=tf,
        assignment=shared.setdefault((("white", e3), ("black", e2)),
                                     {"white": e3, "black": e2}))


def _letters(i):
    """0 -> A, 25 -> Z, 26 -> AA, ... (bijective base 26)."""
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("A") + r) + out
    return out


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
    cusp_widths and assignment are drawn from the read's table of repeated
    values, shared (see _derived_record).

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
    obj["tf_code"] = shared.setdefault(obj["tf_code"], obj["tf_code"])
    obj["cusp_widths"] = shared.setdefault(tuple(widths), widths)
    obj["assignment"] = shared.setdefault(tuple(counts.items()), counts)
    return DessinRecord._make([obj[name] for name in FIELDS])


def _walked_tf_code(h):
    """enumerate's tf code of a torsion dessin h: its retraction's walk."""
    return canonical_form(tf_retract(h))[0].hex()


def _checked_tf_code(retract, stored, proved):
    """The hex tf code of a torsion dessin whose retraction is retract:
    stored itself if it passes, else the canonical code that the record
    build would derive.

    stored passes when a candidate root of retract walks to its bytes (an
    isomorphism test, which also makes them the code of a dessin, so they
    need no validate) and they are its lower-case hex, proved canonical:
    found in proved, the read's {hex code: |Aut|} of the codes proved so
    far, or proved now (_canonical_ties) and added to it.  A retraction
    past MAX_INDEX edges has no code and is a DomainError.
    """
    if retract.n > MAX_INDEX:
        raise DomainError(f"its retraction has {retract.n} edges, more than "
                          f"the {MAX_INDEX} a code's index byte holds")
    try:
        code = bytes.fromhex(stored)
    except ValueError:
        code = b""
    if _is_walk_code(retract, code) and code.hex() == stored:
        ties = proved.get(stored) or _canonical_ties(from_code(code), code)
        if ties:
            proved[stored] = ties
            return stored
    return canonical_form(retract)[0].hex()


def validate_record(rec, shared, proved):
    """Check every field but id of the record against its canonical code.

    The stored code is proved the canonical lower-case hex code of a
    dessin against its own bytes (_canonical_ties), which gives aut_order
    too; a relabelled or upper-case copy is refused, and only then is the
    code it should be derived (canonical_form), to name it.  The other
    fields are derived from the code as the record build derives them and
    compared in FIELDS order, so the first that differs is named.  A
    torsion record's tf_code is checked by an isomorphism test against its
    retraction (_checked_tf_code).  proved, the read's {hex code: |Aut|}
    of the codes proved canonical so far, spares a code found there its
    proof and gains a torsion-free record's code, so each distinct code is
    proved once per read; shared is the read's table of repeated values.
    A record that stores any lift count must store the pair the lift rules
    give, so counts on a class outside the K3 range are refused too.
    """
    def bad(msg):
        raise ValidationError(f"record {rec.id or rec.canonical_code[:8]}: {msg}")

    try:
        code = bytes.fromhex(rec.canonical_code)
        h = validate(from_code(code))
        ties = proved.get(code.hex()) or _canonical_ties(h, code)
        if not ties:             # refused below; the walk names the code
            code, roots = canonical_form(h)
            ties = len(roots)
        want = _derived_record(h, code, ties, lambda t: _checked_tf_code(
            tf_retract(t), rec.tf_code, proved), shared)
    except (Modk3Error, ValueError) as exc:
        bad(f"canonical_code does not rebuild a record ({exc})")
    if not (want.e2 or want.e3):
        proved[want.canonical_code] = want.aut_order
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
    the line.  Two tables, locals of this call, serve the whole read:
    proved maps each code proved canonical to its |Aut|, so each distinct
    code is proved once, and through shared the records share one object
    of each equal tf_code, cusp_widths and assignment.
    """
    records = []
    first_line = {}
    shared = {}
    proved = {}
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
                validate_record(rec, shared, proved)
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
    """The records of enumerate_classes, sorted and with ids.  Each is
    built from the search's (code, |Aut|) pair, its dessin decoded only
    while its record is made, so no class is walked a second time."""
    shared = {}
    records = [_derived_record(from_code(code), code, aut_order,
                               _walked_tf_code, shared)
               for code, aut_order in enumerate_classes(
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
            code, roots = canonical_form(sub)
            out.append(_derived_record(sub, code, len(roots),
                                       lambda _: rec.canonical_code, shared))
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
