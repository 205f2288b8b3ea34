"""Exhaustive enumeration of dessins up to isomorphism.

enumerate_classes runs a backtracking search over partially built
(sigma, alpha) pairs.  Fresh edge labels are always the smallest unused
integer, so every isomorphism class at index n is reached exactly
n / |Aut| times (once per root orbit); a canonicity test at each leaf
keeps exactly one of them, and counts |Aut| on the way.
"""

from .errors import DomainError, ResourceBound
from .hypermap import (
    _candidate_roots, _face_count, _face_walk, _genus, _root_code, _ties,
)

MAX_INDEX = 255        # the canonical code stores the index in one byte
MAX_LEAVES = 10 ** 6   # search leaves allowed in one enumeration


def _search(n, torsion_free, emit):
    """Backtrack over canonically labeled partial (sigma, alpha) pairs.

    Invariant: labels 0..m-1 are introduced, labels grow by discovery, and
    the smallest introduced edge with an open slot is settled next --
    alpha first, then its sigma cycle.  Every leaf is connected because a
    fresh label is only ever attached to an introduced one.  A node only
    fills slots, so in the whole subtree below a node whose open edge is p
    every edge below p keeps both slots filled: each child starts its scan
    for an open edge at p, and the sigma partners of p are sought above p.
    """
    sigma = [-1] * n
    alpha = [-1] * n

    def grow(m, start):
        p = -1
        for e in range(start, m):
            if alpha[e] < 0 or sigma[e] < 0:
                p = e
                break
        if p < 0:
            if m == n:
                emit(sigma, alpha)
            return

        if alpha[p] < 0:
            if not torsion_free:
                alpha[p] = p
                grow(m, p)
                alpha[p] = -1
            for q in range(p + 1, m):
                if alpha[q] < 0:
                    alpha[p] = q
                    alpha[q] = p
                    grow(m, p)
                    alpha[p] = alpha[q] = -1
            if m < n:
                alpha[p] = m
                alpha[m] = p
                grow(m + 1, p)
                alpha[p] = alpha[m] = -1
            return

        # close the sigma cycle at p: fixed point or a full 3-cycle (p x y)
        if not torsion_free:
            sigma[p] = p
            grow(m, p)
            sigma[p] = -1
        free = [e for e in range(p + 1, m) if sigma[e] < 0]
        for x in free:
            for y in free:
                if y != x:
                    sigma[p], sigma[x], sigma[y] = x, y, p
                    grow(m, p)
                    sigma[p] = sigma[x] = sigma[y] = -1
        if m < n:
            for x in free:
                sigma[p], sigma[x], sigma[m] = x, m, p
                grow(m + 1, p)
                sigma[p] = sigma[x] = sigma[m] = -1
                sigma[p], sigma[m], sigma[x] = m, x, p
                grow(m + 1, p)
                sigma[p] = sigma[x] = sigma[m] = -1
        if m + 1 < n:
            sigma[p], sigma[m], sigma[m + 1] = m, m + 1, p
            grow(m + 2, p)
            sigma[p] = sigma[m] = sigma[m + 1] = -1

    grow(1, 0)


def _classes_at(n, genus_filter, torsion_free):
    """The sorted (canonical code, |Aut|) pairs of all classes at one
    index, and the leaf tally.

    A leaf is kept only if its root 0 already gives the canonical code: no
    other root may give a smaller one.  The roots with the minimal code form
    one Aut-orbit, and the search reaches each class once per root orbit,
    so every class is kept exactly once.  Only the roots of _candidate_roots
    can reach the minimum: a leaf whose root 0 is not among them is dropped
    without a walk, and root 0's code is held against the other candidates
    by the read's own tie loop (hypermap._ties), which gives |Aut| or 0.
    The tally counts the leaves that pass the genus filter, before the
    canonicity test.

    The genus comes from Riemann-Hurwitz (_genus).  A torsion-free leaf has
    e2 = e3 = 0, so only its faces are counted: g = 0 exactly when there are
    n/6 + 2 of them.  Any other leaf has its full type read, fixed points
    included.
    """
    pairs = []
    leaves = 0

    def emit(sigma, alpha):
        nonlocal leaves
        # the lists as they stand, with no Hypermap copy or validate: every
        # leaf is a dessin, and the type is read before the search moves on
        if genus_filter is not None:
            if torsion_free:
                g = _genus(n, _face_count(sigma, alpha), 0, 0)
            else:
                widths, e2, e3 = _face_walk((sigma, alpha))
                g = _genus(n, len(widths), e2, e3)
            if g != genus_filter:
                return
        leaves += 1
        roots = _candidate_roots(sigma, alpha)
        if roots[0] != 0:
            return
        code = _root_code(sigma, alpha, 0, None)
        ties = _ties(sigma, alpha, roots, code)
        if ties:
            pairs.append((code, ties))

    _search(n, torsion_free, emit)
    pairs.sort()
    return pairs, leaves


def _check_constraints(n, genus, torsion_free):
    """Refuse, before any search, an index outside 1..MAX_INDEX, a negative
    genus, or a search of more than MAX_LEAVES leaves.

    The search emits one leaf per subgroup of the index, torsion-free ones
    only if asked, whatever the genus filter; Hall's recursion
    (counts.subgroup_counts) predicts that number exactly, so the work cap
    is known before the first node.
    """
    if n < 1:
        raise DomainError(f"index must be at least 1, got {n}")
    if n > MAX_INDEX:
        raise ResourceBound(f"index {n} exceeds {MAX_INDEX}, the largest "
                            f"a canonical code can store")
    if genus is not None and genus < 0:
        raise DomainError(f"genus must be at least 0, got {genus}")
    from .counts import subgroup_counts   # off the import path of the CLI
    leaves = subgroup_counts(n, torsion_free)[-1]
    if leaves > MAX_LEAVES:
        kind = "torsion-free subgroups" if torsion_free else "subgroups"
        raise ResourceBound(f"index {n} has {leaves} {kind}, one search leaf "
                            f"each, over the bound of {MAX_LEAVES} leaves")


def enumerate_classes(index, *, genus=None, torsion_free=False):
    """All conjugacy classes of the index, as (canonical code, |Aut|)
    pairs sorted by code: only those of the given genus if one is given,
    only torsion-free ones if asked.  hypermap.from_code decodes a code to
    its dessin, one at a time.

    Indices outside 1..MAX_INDEX, a negative genus and a search of more
    than MAX_LEAVES leaves are refused before any search.
    """
    _check_constraints(index, genus, torsion_free)
    if torsion_free and index % 6 != 0:
        return []
    pairs, _ = _classes_at(index, genus, torsion_free)
    return pairs
