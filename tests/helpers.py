"""Reference code that only the tests use.

The brute-force oracle and the rooted counts cross-check the search, and
reference_automorphisms (every image of edge 0 tried through _extend_map)
cross-checks the automorphism group that the canonical walk gives;
cycle notation, cycle types, relabelling and white-vertex typing build
and inspect test dessins; word_perm and member_sign push S/T words through a coset
action.  None of it is on a path that a command, the package API or the
benchmark runs, so it lives here rather than in modk3.
"""

from modk3.errors import DomainError, ResourceBound
from modk3.generate import _check_constraints, _classes_at
from modk3.hypermap import (
    Hypermap, _reach_order, canonical_code, compose, cusp_widths, cycles,
    inverse, subgroup_type,
)
from modk3.slwords import coset_action, word_of_matrix

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


# ------------------------------------------------------------ enumeration

def rooted_count(classes):
    """Number of rooted dessins (= subgroups, not classes): sum of n/|Aut|,
    with |Aut| from the reference, not from the canonical walk."""
    if len({h.n for h in classes}) > 1:
        raise DomainError("classes must share one index")
    total = 0
    for h in classes:
        total += h.n // len(reference_automorphisms(h))
    return total


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
