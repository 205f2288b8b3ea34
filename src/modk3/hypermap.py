"""Hypermaps (dessins) for the modular group.

A hypermap is a pair of permutations of the edge set {0..n-1}: sigma of
order dividing 3 (white vertices) and alpha of order dividing 2 (black
vertices), together generating a transitive group.  The face permutation is

    phi(e) = sigma(alpha(e))        # apply alpha, then sigma

and its cycle lengths are the cusp widths; width-1 faces are loops.  The
surgery code in torsion.py is written against this same convention, so it
must not be changed in isolation.

Permutations are tuples of images: p[i] is the image of i.

Here: a permutation's cycles and fixed points, the Hypermap pair and
validate, the one check of a dessin, the type (n; g, h, e2, e3) and cusp
widths from one pass over the edges, the canonical code with the roots
that tie it from one walk over the candidate roots, the proof that a
code is the canonical code of the dessin it decodes to, the test of a
torsion-free dessin against a given code that stops at the first tying
root, and the automorphism group those tying roots give, as its sorted
elements, with the name of a small one (group_label) that the k24
reports print.  The roots other than 0 are held against a code in one
loop (_ties), which the proof and the search's leaf test share.  The
public entries validate their pair; the private walks trust theirs.
"""

from collections import namedtuple

from .errors import DomainError, NotTransitive, OrderViolation


# ------------------------------------------------------------- permutations

def cycles(p):
    """Cycles of p, each starting at its smallest point, ordered by that point.

    Raises OrderViolation when p is not a permutation.  A walk starts at
    the least unmarked point, so an image below it was marked already or
    is negative, which indexing would wrap to a point counted from the end.
    """
    seen = [False] * len(p)
    out = []
    try:
        for x in range(len(p)):
            if seen[x]:
                continue
            cyc = [x]
            seen[x] = True
            y = p[x]
            while y > x:
                if seen[y]:
                    raise OrderViolation(f"not a permutation: {y} is an image twice")
                seen[y] = True
                cyc.append(y)
                y = p[y]
            if y != x:
                raise OrderViolation(f"not a permutation: {y} is an image twice or negative")
            out.append(tuple(cyc))
    except IndexError:
        raise OrderViolation(f"not a permutation: an image lies past {len(p) - 1}") from None
    return out


def fixed_points(p):
    return [x for x in range(len(p)) if p[x] == x]


# ----------------------------------------------------------------- hypermap

class Hypermap(namedtuple("Hypermap", "sigma alpha")):
    """Immutable (sigma, alpha) pair, not checked when built.

    A pair is validated once, where it enters: subgroup_type,
    canonical_code and automorphism_group call validate() first, and the
    private walks they share trust their input.
    """

    __slots__ = ()

    def __new__(cls, sigma, alpha):
        return super().__new__(cls, tuple(sigma), tuple(alpha))

    @property
    def n(self):
        return len(self.sigma)

    def phi(self):
        """Face permutation phi(e) = sigma(alpha(e))."""
        sigma, alpha = self
        return tuple(sigma[a] for a in alpha)


def validate(h):
    """Return h if sigma^3 = alpha^2 = id and the action is transitive."""
    sigma, alpha = h
    n = len(sigma)
    if n == 0:
        raise NotTransitive("a dessin needs at least one edge")
    if len(alpha) != n:
        raise OrderViolation(f"sigma moves {n} points but alpha moves {len(alpha)}")
    labels = list(range(n))
    if sorted(sigma) != labels or sorted(alpha) != labels:
        raise OrderViolation("sigma and alpha must be permutations of 0..n-1")
    for e in range(n):
        if sigma[sigma[sigma[e]]] != e:
            raise OrderViolation(f"sigma^3 != id at edge {e}")
        if alpha[alpha[e]] != e:
            raise OrderViolation(f"alpha^2 != id at edge {e}")
    count = len(_reach_order(sigma, alpha, 0))
    if count != n:
        raise NotTransitive(f"dessin splits: {count} of {n} edges reachable from edge 0")
    return h


def _reach_order(sigma, alpha, root):
    """Edges reachable from root in breadth-first discovery order, sigma
    image before alpha image: the order _root_code relabels by.
    <sigma, alpha> is transitive iff all n edges are reached."""
    seen = bytearray(len(sigma))
    seen[root] = 1
    reached = [root]
    for e in reached:                # the loop also visits what it appends
        f = sigma[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
        f = alpha[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
    return reached


SubgroupType = namedtuple("SubgroupType", "n g h e2 e3")


def _face_walk(h):
    """(face widths, e2, e3) of the dessin h from one pass over its edges.

    The widths are the cycle lengths of phi = sigma*alpha in the order of
    their smallest edges: each walk starts at the least unmarked edge and
    marks the edges of its face until it comes back.  The same pass counts
    the alpha (e2) and sigma (e3) fixed points.  h is a dessin, unchecked.
    """
    sigma, alpha = h
    seen = [False] * len(sigma)
    widths = []
    e2 = e3 = 0
    for start in range(len(sigma)):
        if alpha[start] == start:
            e2 += 1
        if sigma[start] == start:
            e3 += 1
        if seen[start]:
            continue
        e = start
        w = 0
        while not seen[e]:
            seen[e] = True
            w += 1
            e = sigma[alpha[e]]
        widths.append(w)
    return widths, e2, e3


def _face_count(sigma, alpha):
    """Number of cycles of phi = sigma*alpha, from _face_walk's walk with
    only the count kept: the search's torsion-free genus test, where
    e2 = e3 = 0 and no width is read."""
    seen = [False] * len(sigma)
    faces = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        faces += 1
        e = start
        while not seen[e]:
            seen[e] = True
            e = sigma[alpha[e]]
    return faces


def _genus(n, faces, e2, e3):
    """Genus of a dessin with n edges from its counts, by Riemann-Hurwitz:
    12g = 12 + n - 3e2 - 4e3 - 6h.

    The search's leaves reach it unvalidated, so it keeps its own check: a
    negative or fractional genus is a DomainError.
    """
    g, rest = divmod(12 + n - 3 * e2 - 4 * e3 - 6 * faces, 12)
    if rest or g < 0:
        raise DomainError(f"Riemann-Hurwitz broke: 12g = {12 * g + rest}")
    return g


def subgroup_type(h):
    """Type (n; g, h, e2, e3) of the subgroup matching h.

    e2/e3 count alpha/sigma fixed points and h counts faces, all from one
    pass of _face_walk (no phi or cycle tuples), and the genus comes out of
    Riemann-Hurwitz (_genus).  h is validated first.
    """
    validate(h)
    widths, e2, e3 = _face_walk(h)
    return SubgroupType(h.n, _genus(h.n, len(widths), e2, e3), len(widths), e2, e3)


# ------------------------------------------------------------ canonical code

def _root_code(sigma, alpha, root, best):
    """Code of the relabeling from root, compared with best.

    Edges are relabeled by breadth-first discovery (sigma image first, then
    alpha image), and the code is bytes([n]) + sigma bytes + alpha bytes in
    the new labels.  Sigma byte i is known as soon as the i-th edge is
    dequeued, so the walk stops at the first sigma byte above best's; the
    alpha bytes only matter when the sigma part ties.  Returns None when the
    code loses to best, best itself when it ties, and the new code when it
    is smaller; best=None always yields the code.
    """
    n = len(sigma)
    new = [-1] * n                           # old label -> new label
    new[root] = 0
    order = [root]                           # old labels in discovery order
    k = 1                                    # len(order), the next new label
    sig = []
    alp = []
    tied = best is not None
    i = 1                                    # best's byte for the next sigma
    for e in order:                  # the loop also visits what it appends
        f = sigma[e]
        s = new[f]
        if s < 0:
            s = new[f] = k
            k += 1
            order.append(f)
        if tied:
            b = best[i]
            if s > b:
                return None
            tied = s == b
            i += 1
        sig.append(s)
        f = alpha[e]
        a = new[f]
        if a < 0:
            a = new[f] = k
            k += 1
            order.append(f)
        alp.append(a)
    if tied:
        tail, best_tail = bytes(alp), best[1 + n:]
        if tail > best_tail:
            return None
        if tail == best_tail:
            return best
    return bytes([n, *sig, *alp])


def _candidate_roots(sigma, alpha):
    """Ascending roots whose codes have the least first two sigma bytes.

    Both bytes have a closed form.  Byte 1 is 0 iff sigma fixes the root.
    From a sigma-fixed root r, byte 2 is 1 iff sigma also fixes alpha[r],
    else 2.  When sigma fixes nothing, byte 1 is 1 everywhere and byte 2 is
    2 iff alpha[r] lies in r's own sigma cycle (r, sigma r, sigma^2 r),
    else 3.  Every other root's code loses to theirs at byte 1 or 2, so the
    minimal code and all the roots that tie it are among these.  O(n), no
    walk.  On a torsion-free dessin with loops they are the loop edges
    (sigma alpha r = r) and their alpha partners (alpha r = sigma r).
    """
    fixed = [r for r in range(len(sigma)) if sigma[r] == r]
    if fixed:
        best = [r for r in fixed if sigma[alpha[r]] == alpha[r]]
    else:
        best = [r for r in range(len(sigma))
                if alpha[r] == r or alpha[r] == sigma[r]
                or sigma[alpha[r]] == r]
    return best or fixed or list(range(len(sigma)))


def canonical_form(h):
    """(canonical code, tying roots) of a dessin from one walk over its roots.

    The code is the lexicographic minimum over all n roots of the
    breadth-first relabeling code of _root_code: bytes([n]) + sigma images
    + alpha images.  Only the roots that _candidate_roots keeps are walked,
    since every other root loses at sigma byte 1 or 2, and a walked root is
    abandoned at the first byte that loses to the best code so far.  Two
    roots give the same code iff an automorphism maps one to the other, and
    Aut acts freely on the edges of a transitive pair, so the ascending
    candidates that tie the minimum are the Aut-orbit of the first of them
    and number |Aut|.  h is a dessin, unchecked: the package walks only
    those it has enumerated, validated or built from one.
    """
    sigma, alpha = h
    roots = _candidate_roots(sigma, alpha)
    best = _root_code(sigma, alpha, roots[0], None)
    ties = [roots[0]]
    for root in roots[1:]:
        code = _root_code(sigma, alpha, root, best)
        if code is best:
            ties.append(root)
        elif code is not None:
            best, ties = code, [root]
    return best, ties


def _ties(sigma, alpha, roots, code):
    """1 + the number of non-zero roots among roots that walk to code, or
    0 once one walks below it: each is abandoned at the first byte above
    code.  With root 0 walking to code, the ties are the Aut-orbit that
    canonical_form counts, so a non-zero result is |Aut|."""
    ties = 1
    for root in roots:
        if root:
            walked = _root_code(sigma, alpha, root, code)
            if walked is code:
                ties += 1
            elif walked is not None:
                return 0
    return ties


def _canonical_ties(h, code):
    """|Aut| of the dessin h if code, the code h was decoded from
    (from_code), is its canonical code; 0 if it is not.

    Root 0 relabels nothing exactly when its breadth-first walk discovers
    the edges in label order, so on a transitive pair one scan of the
    sigma and alpha images, in the order the walk reads them, proves that
    root 0 walks to code.  The other candidate roots are held against code
    (_ties): one that gives a smaller code refutes it.  A root 0 that is no
    candidate loses to the candidates at sigma byte 1 or 2, which the walks
    find.  No canonical code is derived: canonical_form is for naming the
    code that a refused one should be.
    """
    sigma, alpha = h
    k = 1                                    # edges discovered so far
    for s, a in zip(sigma, alpha):
        if s == k:
            k += 1
        elif s > k:
            return 0
        if a == k:
            k += 1
        elif a > k:
            return 0
    return _ties(sigma, alpha, _candidate_roots(sigma, alpha), code)


def _is_walk_code(h, code):
    """Whether a root of the torsion-free dessin h walks to code.

    A canonical code passes iff its dessin is isomorphic to h, so this is
    an isomorphism test: it stops at the first root that ties code, and a
    root is abandoned at the first sigma byte above code's.  Only the
    candidate roots of code's kind are walked: code's first alpha byte is 1
    exactly from a root whose alpha and sigma images agree.
    """
    sigma, alpha = h
    n = len(sigma)
    if len(code) != 1 + 2 * n or code[0] != n:
        return False
    partner = code[1 + n] == 1
    for r in _candidate_roots(sigma, alpha):
        if ((alpha[r] == sigma[r]) == partner
                and _root_code(sigma, alpha, r, code) is code):
            return True
    return False


def canonical_code(h):
    """Relabel-invariant byte code; two hypermaps are isomorphic iff equal.

    The first element of canonical_form(h), h validated first.
    """
    return canonical_form(validate(h))[0]


def from_code(code):
    """Rebuild the hypermap serialized by canonical_code (not validated)."""
    if not code or len(code) != 1 + 2 * code[0]:
        raise DomainError(f"code length {len(code)} does not fit its index byte")
    n = code[0]
    return Hypermap(code[1:1 + n], code[1 + n:])


# ------------------------------------------------------------- automorphisms

def automorphism_group(h):
    """All psi with psi*sigma = sigma*psi and psi*alpha = alpha*psi, h
    validated first; see _automorphism_group."""
    return _automorphism_group(validate(h))


def _automorphism_group(h):
    """The automorphisms of the dessin h as a sorted tuple, identity
    first; h is unchecked.

    The roots that tie the canonical code all relabel h into the same
    dessin, so the map sending the discovery order from the first of them
    onto the order from each one is an automorphism, and these are all of
    them.
    """
    sigma, alpha = h
    _, roots = canonical_form(h)
    orders = [_reach_order(sigma, alpha, root) for root in roots]
    els = []
    for order in orders:
        psi = [0] * len(sigma)
        for e, image in zip(orders[0], order):
            psi[e] = image
        els.append(tuple(psi))
    return tuple(sorted(els))


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
