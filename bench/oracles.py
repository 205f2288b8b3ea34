"""Expected outputs of the benchmark workloads, derived without modk3.

Nothing here imports the package under test.  The counts come from two
closed forms that are independent of the backtracking search and from the
paper's fixed integers:

* Hall (1949), "Subgroups of finite index in free groups": the number a_n
  of index-n subgroups of PSL(2,Z) = Z/2 * Z/3 satisfies
  a_n = h_n/(n-1)! - sum_{k<n} h_{n-k}/(n-k)! * a_k with
  h_m = t2(m) * t3(m), where t2, t3 count solutions of x^2 = 1 and
  x^3 = 1 in S_m.  With fixed-point-free solutions instead, the same
  recursion counts the torsion-free subgroups of every genus.
* Mullin and Tutte, rooted planar cubic maps (OEIS A002005):
  2^(2k+1) (3k)!! / ((k+2)! k!!), the torsion-free genus-0 subgroups of
  index 6k.

Every check function takes what the CLI produced (its JSONL records, parsed,
or its printed text) and returns a list of failure messages; an empty list
means the output is correct.
"""

import re
from fractions import Fraction
from math import factorial


def _solutions(m_max, order, fixed_point_free):
    """t(m) = #{x in S_m : x^order = 1} for m = 0..m_max (order 2 or 3).

    A solution is a set of disjoint cycles of length dividing `order`, so
    t(m) = t(m-1) + (m-1)...(m-order+1) t(m-order); the first term (m fixed)
    is dropped for fixed-point-free solutions.
    """
    t = [1] + [0] * m_max
    for m in range(1, m_max + 1):
        if not fixed_point_free:
            t[m] = t[m - 1]
        if m >= order:
            ways = 1
            for j in range(1, order):
                ways *= m - j
            t[m] += ways * t[m - order]
    return t


def hall_counts(n_max, torsion_free=False):
    """[a_1, ..., a_n_max]: index-n subgroup counts of Z/2 * Z/3."""
    t2 = _solutions(n_max, 2, torsion_free)
    t3 = _solutions(n_max, 3, torsion_free)
    h = [t2[m] * t3[m] for m in range(n_max + 1)]
    a = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        value = Fraction(h[n], factorial(n - 1))
        for k in range(1, n):
            value -= Fraction(h[n - k], factorial(n - k)) * a[k]
        if value.denominator != 1:
            raise ArithmeticError(f"Hall recursion gave a fraction at n={n}")
        a[n] = int(value)
    return a[1:]


def _double_factorial(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def rooted_cubic_maps(k):
    """A002005(k): rooted planar cubic maps with 2k vertices."""
    num = 2 ** (2 * k + 1) * _double_factorial(3 * k)
    den = factorial(k + 2) * _double_factorial(k)
    if num % den:
        raise ArithmeticError(f"A002005 formula gave a fraction at k={k}")
    return num // den


# ------------------------------------------------------ the paper's integers

STRATA = (6, 12, 18, 24)
TF_CLASSES = {6: 2, 12: 6, 18: 26, 24: 191}
STRATUM_CLASSES = {6: 6, 12: 28, 18: 232, 24: 2962}
STRATUM_LIFTS = {6: 14, 12: 69, 18: 366, 24: 2962}
TOTAL_CLASSES = 3228
TOTAL_LIFTS = 3411
BIJECTIVE = 3153
MULTI_CLASSES, MULTI_LIFTS = 75, 258

# conjugacy classes of index-n subgroups of PSL(2,Z), n = 1..18 (OEIS A121350)
CLASS_COUNTS = (1, 1, 2, 2, 1, 8, 6, 7, 14, 27, 26, 80, 133, 170, 348, 765,
                1002, 2176)

TOTALS_TABLE = """\
stratum  classes  lifts
      6        6     14
     12       28     69
     18      232    366
     24     2962   2962
total classes 3228
total lifts 3411
bijective 3153
multi-lift classes 75 carrying 258 lifts
"""

K6_TABLE = """\
id       type (n;g,h,e2,e3)   widths   1:1  2:1
1-A      (1;0,1,1,1)          1          0    1
2-A      (2;0,1,0,2)          2          1    1
2,1-A    (3;0,2,1,0)          2,1        0    1
3,1-A    (4;0,2,0,1)          3,1        2    1
4,1,1-A  (6;0,3,0,0)          4,1,1      3    1
2,2,2-A  (6;0,3,0,0)          2,2,2      2    1
classes 6  lifts 14
"""


def tf_counts_table():
    """The `report --table tf-counts` output the closed forms predict."""
    lines = ["index  classes  subgroups"]
    for n in STRATA:
        lines.append(f"{n:5d}  {TF_CLASSES[n]:7d}  {rooted_cubic_maps(n // 6):9d}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ checks

def _lift_total(rec):
    one, two = rec.get("lift_one_to_one"), rec.get("lift_two_to_one")
    if not isinstance(one, int) or not isinstance(two, int):
        return None
    return one + two


def check_tf_stratum(n, records):
    """`enumerate --index n --torsion-free --genus 0`: classes and rooted sum."""
    errors = []
    if len(records) != TF_CLASSES[n]:
        errors.append(f"tf{n}: {len(records)} classes, want {TF_CLASSES[n]}")
    rooted = sum(Fraction(r["index"], r["aut_order"]) for r in records)
    want = rooted_cubic_maps(n // 6)
    if rooted != want:
        errors.append(f"tf{n}: sum index/aut_order = {rooted}, A002005 gives {want}")
    if any((r["index"], r["genus"], r["e2"], r["e3"]) != (n, 0, 0, 0)
           for r in records):
        errors.append(f"tf{n}: a record is not torsion-free genus 0 of index {n}")
    return errors


def check_stratum(n, expanded, lifted):
    """`expand` then `lifts` on one stratum: class and lift counts."""
    errors = []
    if len(expanded) != STRATUM_CLASSES[n]:
        errors.append(f"k{n}: {len(expanded)} classes, want {STRATUM_CLASSES[n]}")
    if [r["canonical_code"] for r in lifted] != [r["canonical_code"] for r in expanded]:
        errors.append(f"k{n}: lifts did not keep the expanded records in order")
    lifts = [_lift_total(r) for r in lifted]
    if None in lifts:
        errors.append(f"k{n}: a record has no lift counts")
    elif sum(lifts) != STRATUM_LIFTS[n]:
        errors.append(f"k{n}: {sum(lifts)} lifts, want {STRATUM_LIFTS[n]}")
    return errors


def check_catalog(records):
    """The concatenated catalog: the paper's global totals."""
    errors = []
    lifts = [_lift_total(r) for r in records]
    if len(records) != TOTAL_CLASSES:
        errors.append(f"catalog: {len(records)} classes, want {TOTAL_CLASSES}")
    if None in lifts:
        return errors + ["catalog: a record has no lift counts"]
    got = (sum(lifts), sum(1 for x in lifts if x == 1),
           sum(1 for x in lifts if x > 1), sum(x for x in lifts if x > 1))
    want = (TOTAL_LIFTS, BIJECTIVE, MULTI_CLASSES, MULTI_LIFTS)
    if got != want:
        errors.append(f"catalog: (lifts, bijective, multi classes, multi lifts) "
                      f"= {got}, want {want}")
    return errors


def check_deep(n, records):
    """`enumerate --index n`: class count and Hall's rooted count."""
    errors = []
    if n <= len(CLASS_COUNTS) and len(records) != CLASS_COUNTS[n - 1]:
        errors.append(f"deep{n}: {len(records)} classes, want {CLASS_COUNTS[n - 1]}")
    rooted = sum(Fraction(r["index"], r["aut_order"]) for r in records)
    want = hall_counts(n)[-1]
    if rooted != want:
        errors.append(f"deep{n}: sum n/aut_order = {rooted}, Hall gives {want}")
    return errors


def _table_rows(text, label):
    """Cells of the row starting with `label`, as integers (or None)."""
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] == label:
            try:
                return [int(c) for c in cells[1:]]
            except ValueError:
                return None
    return None


def check_report(table, text):
    """One `report --table` output against the README and paper integers."""
    if table == "totals":
        ok = text == TOTALS_TABLE
    elif table == "k6":
        ok = text == K6_TABLE
    elif table == "tf-counts":
        ok = text == tf_counts_table()
    elif table == "k12":
        # columns: e2>0 e3=1 e3=2 e3=3 | 1:1 2:1 over the non-tf classes
        row = _table_rows(text, "totals")
        ok = (row is not None and len(row) == 6
              and sum(row[:4]) == STRATUM_CLASSES[12] - TF_CLASSES[12]
              and sum(row[4:]) == STRATUM_LIFTS[12])
    elif table == "k18":
        # columns: tf | e2>0 e3=1 e3>=2
        row = _table_rows(text, "totals")
        ok = (row is not None and len(row) == 4 and row[0] == TF_CLASSES[18]
              and sum(row[1:]) == STRATUM_CLASSES[18] - TF_CLASSES[18])
    elif table == "k24":
        lines = text.splitlines()
        ok = bool(lines) and lines[-1] == f"stratum total {STRATUM_CLASSES[24]}"
    elif table == "k24sym":
        lines = text.splitlines()
        ok = bool(lines) and lines[-1] == "total 24" and len(lines) == 26
    else:
        return [f"report {table}: no expected output"]
    return [] if ok else [f"report {table}: output differs from the expected table"]


def check_verify(text):
    want = f"verified {TOTAL_CLASSES} records and 1000 matrix samples\n"
    return [] if text == want else [f"verify: printed {text.strip()!r}"]


_EDGE = re.compile(r'^  w(\d+) -- b(\d+) \[label="(\d+)"\];$')


def check_dot(record, text):
    """`export-dot` of one record: one edge line per edge, labeled by width.

    Expected shape from the record's own fields: (n - e3)/3 + e3 white and
    (n - e2)/2 + e2 black vertices, and a face of width w labels w edges.
    """
    rid, n = record["id"], record["index"]
    lines = text.splitlines()
    edges = [m.groups() for m in map(_EDGE.match, lines) if m]
    whites = sum(1 for line in lines if re.match(r"^  w\d+ \[shape=circle\];$", line))
    blacks = sum(1 for line in lines if re.match(r"^  b\d+ \[shape=circle, style=filled", line))
    labels = sorted(int(w) for _, _, w in edges)
    want_labels = sorted(w for w in record["cusp_widths"] for _ in range(w))
    errors = []
    if not lines or lines[0] != f'graph "{rid}" {{' or lines[-1] != "}":
        errors.append(f"export-dot {rid}: not a DOT graph of that id")
    if len(edges) != n:
        errors.append(f"export-dot {rid}: {len(edges)} edge lines for {n} edges")
    if (whites, blacks) != ((n - record["e3"]) // 3 + record["e3"],
                            (n - record["e2"]) // 2 + record["e2"]):
        errors.append(f"export-dot {rid}: {whites} white, {blacks} black vertices")
    if labels != want_labels:
        errors.append(f"export-dot {rid}: edge labels do not match the cusp widths")
    return errors
