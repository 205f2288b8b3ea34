"""Reference code that only the tests use.

The brute-force oracle and the rooted counts cross-check the search, and
reference_automorphisms (every image of edge 0 tried through _extend_map)
cross-checks the automorphism group that the canonical walk gives;
burnside_count counts Aut-orbits of assignments independently of the
orbit_representatives listing that expansion and the k24 report use, on
the action that block_action builds from the automorphisms and the
blocks they permute (loop_blocks for the loops);
cycle notation, cycle types, relabelling and white-vertex typing build
and inspect test dessins; mul, inv and the S/T matrices multiply the
package's Mat2, and word_perm and member_sign push S/T words through a
coset action; the Kodaira fibre table and the Euler-number formulas
check the minimal Euler numbers, and cover_lift_pair re-derives a
record's stored lift pair from the double cover of its coset action,
with the Euler numbers of that table.  cusp_widths is a validating
entry the hypermap tests call, class_dessins decodes the search's
classes to the dessins most tests inspect, and full_catalog builds the
whole catalog through the commands' own builds, once per session for
the conftest fixture.  None of it is on a path that a command or the
benchmark runs, so it lives here rather than in modk3.
"""

from collections import namedtuple
from math import comb, factorial, gcd, prod

from modk3 import catalog
from modk3.errors import DomainError, ResourceBound
from modk3.generate import _check_constraints, _classes_at, enumerate_classes
from modk3.hypermap import (
    Hypermap, _face_walk, _reach_order, canonical_code, cycles, from_code,
    subgroup_type, validate,
)
from modk3.lifts import tf_index
from modk3.slwords import Mat2, coset_action, word_of_matrix
from modk3.torsion import loops

ORACLE_MAX = 12


# ------------------------------------------------------------- hypermaps

def identity_perm(n):
    return tuple(range(n))


def perm_from_cycles(n, *cycs):
    """Permutation of 0..n-1 from cycle notation; omitted points are fixed."""
    images = list(range(n))
    for cyc in cycs:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def cycle_type(p):
    """Descending multiset of cycle lengths."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def relabel(h, p):
    """Conjugate both permutations by p (edge e becomes p[e])."""
    n = h.n
    sigma = [0] * n
    alpha = [0] * n
    for e in range(n):
        sigma[p[e]] = p[h.sigma[e]]
        alpha[p[e]] = p[h.alpha[e]]
    return Hypermap(sigma, alpha)


def cusp_widths(h):
    """Descending cycle lengths of the face permutation of the validated
    dessin h; they sum to n."""
    validate(h)
    return tuple(sorted(_face_walk(h)[0], reverse=True))


def loop_count(h):
    """Number of width-1 faces."""
    return cusp_widths(h).count(1)


def white_vertex_types(h):
    """Type a|b|c of every trivalent white vertex.

    The widths of the three faces met at the vertex are read in sigma
    order and normalized to the lexicographically largest rotation, which
    always lands in the shape a >= b >= c or a > c > b.  Keyed by the
    sigma 3-cycle (smallest edge first).
    """
    faces = cycles(h.phi())
    width_of = {}
    for face in faces:
        for e in face:
            width_of[e] = len(face)
    out = {}
    for cyc in cycles(h.sigma):
        if len(cyc) != 3:
            continue
        trip = tuple(width_of[e] for e in cyc)
        out[cyc] = max(trip, trip[1:] + trip[:1], trip[2:] + trip[:2])
    return out


def _extend_map(h, t):
    """Grow 0 -> t into a permutation commuting with sigma and alpha, or None."""
    n, sigma, alpha = h.n, h.sigma, h.alpha
    psi = [-1] * n
    psi[0] = t
    todo = [0]
    while todo:
        e = todo.pop()
        for src, img in ((sigma[e], sigma[psi[e]]), (alpha[e], alpha[psi[e]])):
            if psi[src] < 0:
                psi[src] = img
                todo.append(src)
            elif psi[src] != img:
                return None
    if len(set(psi)) != n:
        return None
    return tuple(psi)


def reference_automorphisms(h):
    """Aut of a dessin by trying all n images of edge 0, ascending by
    that image (so the identity comes first); O(n^2)."""
    return tuple(psi for t in range(h.n)
                 if (psi := _extend_map(h, t)) is not None)


# ---------------------------------------------------- substitution orbits

def block_action(elements, blocks):
    """Each automorphism as the permutation of blocks, disjoint edge
    tuples that it permutes, that it induces: g[j] is the block psi sends
    block j to."""
    block_of = {e: j for j, block in enumerate(blocks) for e in block}
    return tuple(tuple(block_of[psi[block[0]]] for block in blocks)
                 for psi in elements)


def loop_blocks(h):
    """The loops of the tf dessin h as 1-tuples, in torsion.loops order:
    the blocks an assignment's letters sit on."""
    return [(e,) for e in loops(h)]


def burnside_count(loop_action, options_per_loop):
    """Orbits of per-loop option assignments under the given action.

    Plain Burnside: average of options^(#cycles) over the group.
    """
    group_order = len(loop_action)
    L = len(loop_action[0]) if loop_action else 0
    total = 0
    for la in loop_action:
        seen = [False] * L
        n_cycles = 0
        for j in range(L):
            if seen[j]:
                continue
            n_cycles += 1
            k = j
            while not seen[k]:
                seen[k] = True
                k = la[k]
        total += options_per_loop ** n_cycles
    if total % group_order:
        raise DomainError("Burnside sum does not divide evenly; "
                          "the action is not a group")
    return total // group_order


# ------------------------------------------------------------ enumeration

def full_catalog():
    """The complete K catalog with lift counts, built afresh on each call
    through the commands' own builds; strata in index order, with the
    per-stratum ids that the CLI writes."""
    records = []
    for n in (6, 12, 18, 24):
        tf = catalog.enumerate_records(n, genus=0, torsion_free=True)
        records.extend(catalog.add_lift_fields(catalog.expand_records(tf)))
    return records


def class_dessins(index, *, genus=None, torsion_free=False):
    """The dessins of enumerate_classes, decoded from its (code, |Aut|)
    pairs in their sorted order."""
    return [from_code(code) for code, _ in enumerate_classes(
        index, genus=genus, torsion_free=torsion_free)]


def rooted_count(classes):
    """Number of rooted dessins (= subgroups, not classes): sum of n/|Aut|,
    with |Aut| from the reference, not from the canonical walk."""
    if len({h.n for h in classes}) > 1:
        raise DomainError("classes must share one index")
    total = 0
    for h in classes:
        total += h.n // len(reference_automorphisms(h))
    return total


def rooted_cubic_maps(k):
    """A002005: rooted planar cubic maps with 2k vertices, which are the
    rooted tf genus-0 subgroups of index 6k (Mullin-Tutte),
    2^(2k+1) (3k)!! / ((k+2)! k!!)."""
    def double_factorial(x):
        return prod(range(x, 0, -2))
    return (2 ** (2 * k + 1) * double_factorial(3 * k)
            // (factorial(k + 2) * double_factorial(k)))


def tf_class_count(n, quotients):
    """tf genus-0 classes of index n by Burnside over quotient dessins
    (Liskovets' reductive technique), from the genus-0 classes of smaller
    index given as (index, h, e2, e3, aut_order) tuples.

    Each rooted class is counted once by the identity and once by each
    non-identity automorphism.  One of order d is a rotation of the sphere
    with two fixed points; its quotient, of index m = n/d, carries them as
    j torsion points and 2 - j marked faces: j = e2 <= 2 alpha fixed points
    and no sigma fixed point for d = 2, j = e3 <= 2 the other way round for
    d = 3, and j = 0 with no fixed point for d >= 4.  So
    n #classes(n) = A002005(n/6) + sum over d | n, d > 1, of
    phi(d) Q(n/d, d), Q(m, d) = sum of (m/aut_order) C(h, 2 - j).
    """
    total = rooted_cubic_maps(n // 6)
    for d in range(2, n + 1):
        if n % d:
            continue
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        for index, h, e2, e3, aut_order in quotients:
            if index != n // d:
                continue
            j, other = ((e2, e3) if d == 2 else (e3, e2) if d == 3
                        else (0, e2 + e3))
            if other == 0 and j <= 2:
                total += phi * (index // aut_order) * comb(h, 2 - j)
    if total % n:
        raise DomainError(f"Burnside sum {total} is not a multiple of {n}")
    return total // n


def search_leaf_count(index, *, genus=None, torsion_free=False):
    """Leaves the backtracker emits; must equal rooted_count of the classes.

    Each subgroup is built exactly once (fresh labels are forced), so this
    tally double-checks the search against the automorphism bookkeeping.
    """
    _check_constraints(index, genus, torsion_free)
    if torsion_free and index % 6 != 0:
        return 0
    _, leaves = _classes_at(index, genus, torsion_free)
    return leaves


def _order3_perms(n, allow_fixed):
    """Yield every permutation of 0..n-1 with sigma^3 = id, as a list."""
    images = [-1] * n

    def rec(done):
        if done == n:
            yield images
            return
        p = images.index(-1)
        if allow_fixed:
            images[p] = p
            yield from rec(done + 1)
            images[p] = -1
        free = [e for e in range(p + 1, n) if images[e] < 0]
        for i, x in enumerate(free):
            for y in free[:i] + free[i + 1:]:
                images[p], images[x], images[y] = x, y, p
                yield from rec(done + 3)
                images[p] = images[x] = images[y] = -1

    yield from rec(0)


def brute_force_oracle(n, genus_filter=None, torsion_free=False):
    """Classes at index n by brute force; canonical codes, sorted.

    For each number of 2-cycles in alpha, one representative involution is
    fixed (conjugating sigma by a relabeling moves any alpha to it) and
    every order-dividing-3 sigma runs through.  Honest but exponential;
    refuses n > ORACLE_MAX.  It shares only the transitivity walk,
    canonical_code and subgroup_type with the search.
    """
    if n > ORACLE_MAX:
        raise ResourceBound(f"oracle stops at index {ORACLE_MAX}, asked for {n}")
    found = {}
    for two_cycles in range(n // 2 + 1):
        e2 = n - 2 * two_cycles
        if torsion_free and e2 > 0:
            continue
        alpha = list(range(n))
        for i in range(two_cycles):
            alpha[2 * i], alpha[2 * i + 1] = 2 * i + 1, 2 * i
        for sigma in _order3_perms(n, allow_fixed=not torsion_free):
            if len(_reach_order(sigma, alpha, 0)) != n:
                continue
            h = Hypermap(sigma, alpha)
            if genus_filter is not None and subgroup_type(h).g != genus_filter:
                continue
            code = canonical_code(h)
            if code not in found:
                found[code] = None
    return sorted(found)


# -------------------------------------------------------------- S/T words

def mul(p, q):
    """Matrix product p q of two Mat2."""
    return Mat2(p.a * q.a + p.b * q.c, p.a * q.b + p.b * q.d,
                p.c * q.a + p.d * q.c, p.c * q.b + p.d * q.d)


def inv(m):
    """Inverse of a determinant-1 Mat2."""
    return Mat2(m.d, -m.b, -m.c, m.a)


I2 = Mat2(1, 0, 0, 1)
S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)
T_INV = inv(T)


def compose(p, q):
    """(p*q)(x) = p(q(x)) -- q acts first."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def word_perm(h, word):
    """Permutation of the word's matrix on edges (homomorphism order)."""
    perm_s, perm_t = coset_action(h)
    letters = {"S": perm_s, "T": perm_t, "T^-1": inverse(perm_t)}
    acc = identity_perm(h.n)
    for letter in word:
        acc = compose(acc, letters[letter])
    return acc


def member_sign(h, root, m):
    """(membership, sign) of m for the subgroup attached to (h, root).

    Membership is decided at the PSL level; the sign of the word
    decomposition lets SL-level callers track -I.
    """
    word, sign = word_of_matrix(m)
    return word_perm(h, word)[root] == root, sign


# ----------------------------------------------------------- Euler numbers
#
# Ramification entries in EulerInput count EXCESS branching: 0 means
# unramified.  That convention is forced by the corollary cross-check
# (an unramified 2-torsion preimage must contribute 6 * {1/2} = 3), and
# everything downstream assumes it.

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


# ------------------------------------------------------------ double cover
#
# A lift of a group that omits -I is a double cover of its coset action:
# points (e, +-), with S~^2 = U~^3 = z and z swapping the sheets.  Each
# sheet bit is an affine GF(2) form (mask, constant) in free variables,
# bit i of the mask standing for variable i.

def _gf2_rank(masks):
    """Rank over GF(2) of int bitmasks (one pivot per top bit)."""
    pivots = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                break
            m ^= pivots[top]
    return len(pivots)


def cover_lift_pair(rec):
    """(1:1, 2:1) counts of the K3-realized lifts of the record's group,
    from the double cover of its coset action alone: the dessin decoded
    from the canonical code, no other field and no lift rule of modk3.

    1:1 lifts omit -I.  An alpha fixed point admits no S~ (its square
    fixes both sheets there, so it is not z), so e2 > 0 has none.  Otherwise each alpha
    2-cycle carries one sheet bit, each sigma 3-cycle bits of odd sum,
    and a sigma fixed point bit 1 (U~^3 = z there, so the group holds the
    order-3 U~^2: a IV* fibre).  A cusp of width w is I_w if
    T~^w = (S~^-1 U~)^w fixes (e, +), else I_w*.  Relabelling the sheets
    over one edge changes no lift, so the lifts are the 2^(nvars - n + 1)
    classes of bits; the cusp signs must separate them (else DomainError).
    The 1:1 count is the number of Aut-orbits of lifts whose Euler number,
    w per I_w, w + 6 per I_w* and 8 per IV*, is at most 24.

    The 2:1 column, by hand: the full preimage holds -I.  III (e2) or II
    (e3) fibres carry it at Euler 6k; with no torsion it needs an I0*, so
    Euler 6k + 6.  It counts 1 when that is at most 24.
    """
    h = from_code(bytes.fromhex(rec.canonical_code))
    n, sigma, alpha = h.n, h.sigma, h.alpha
    e2 = sum(alpha[e] == e for e in range(n))
    e3 = sum(sigma[e] == e for e in range(n))
    full = (n + e2 * kodaira_fibre("III").euler_number
            + e3 * kodaira_fibre("II").euler_number)
    if not e2 and not e3:
        full += kodaira_fibre("I0*").euler_number
    two_to_one = int(full <= 24)
    if e2:
        return (0, two_to_one)

    s_bit = [None] * n      # the S~ step out of (e, s) adds s_bit[e]
    u_bit = [None] * n      # the U~ step out of (e, s) adds u_bit[e]
    nvars = 0
    for x, y in cycles(alpha):
        s_bit[x], s_bit[y] = (1 << nvars, 0), (1 << nvars, 1)
        nvars += 1
    for cyc in cycles(sigma):
        if len(cyc) == 1:
            u_bit[cyc[0]] = (0, 1)
            continue
        x, y, z = cyc
        u_bit[x], u_bit[y] = (1 << nvars, 0), (2 << nvars, 0)
        u_bit[z] = (3 << nvars, 1)
        nvars += 2

    # T~ = S~^-1 U~: (e, s) -> (t, s + u_bit[e] + s_bit[t]), t = alpha sigma e
    cusps = cycles(tuple(alpha[sigma[e]] for e in range(n)))
    signs = []
    for cusp in cusps:
        mask = const = 0
        e = cusp[0]
        for _ in cusp:
            um, uc = u_bit[e]
            e = alpha[sigma[e]]
            sm, sc = s_bit[e]
            mask, const = mask ^ um ^ sm, const ^ uc ^ sc
        signs.append((mask, const))
    if _gf2_rank(m for m, _ in signs) != nvars - n + 1:
        raise DomainError("the cusp signs do not separate the lifts")

    lifts = {tuple(c for _, c in signs)}
    for i in range(nvars):
        col = tuple(m >> i & 1 for m, _ in signs)
        lifts |= {tuple(a ^ b for a, b in zip(v, col)) for v in lifts}
    euler = [(kodaira_fibre("Ib", len(c)).euler_number,
              kodaira_fibre("Ib*", len(c)).euler_number) for c in cusps]
    fixed = e3 * kodaira_fibre("IV*").euler_number
    action = block_action(reference_automorphisms(h), cusps)
    orbits = {min(tuple(v[j] for j in g) for g in action) for v in lifts
              if fixed + sum(e[star] for e, star in zip(euler, v)) <= 24}
    return (len(orbits), two_to_one)
