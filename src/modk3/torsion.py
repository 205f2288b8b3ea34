"""Surgery between torsion and torsion-free dessins.

A width-1 face (loop) of a torsion-free dessin hangs off one sigma
3-cycle.  Cutting it off in one of two ways introduces an elliptic fixed
point; gluing gadgets back on removes them:

* White: delete the loop edge and its alpha partner, leaving the third
  edge of the 3-cycle as a sigma fixed point (order-3 torsion, 2 edges).
* Black: delete the whole 3-cycle, leaving the attachment's alpha partner
  as an alpha fixed point (order-2 torsion, 3 edges).

The inverse direction (tf_retract) plants a 2-edge gadget at every sigma
fixed point and a 3-edge gadget at every alpha fixed point.  Expanding a
torsion-free class means choosing Keep/White/Black per loop up to the
automorphism action on loops, as classes_over lists them.
"""

import itertools

from .errors import DegenerateSubstitution, DomainError
from .hypermap import Hypermap, _automorphism_group, fixed_points

KEEP = "keep"
WHITE = "white"
BLACK = "black"


def loops(h):
    """The loop edges e (phi(e) = e) of all width-1 faces, ascending.

    The j-th loop edge is the j-th letter of an assignment, for substitute
    and for the listing in classes_over alike.
    """
    sigma, alpha = h
    out = []
    for e in range(len(sigma)):
        partner = alpha[e]
        if sigma[partner] != e:          # a loop: phi(e) = e
            continue
        # the loop must hang off a genuine 3-cycle: (e, sigma(e), partner)
        if partner == e or sigma[sigma[e]] != partner:
            raise DomainError(f"loop at edge {e} is not trivalent (torsion input?)")
        out.append(e)
    return out


def substitute(h_tf, assignment):
    """Apply one Keep/White/Black choice per loop of the torsion-free
    dessin h_tf, all at once; the result is a dessin without a check.

    Deletion sets of distinct loops are disjoint (they sit in distinct
    sigma cycles), so simultaneous application equals any sequential
    order.  Each gadget hangs off the rest by one alpha pair, so the
    survivors stay connected: the one degenerate case deletes every edge,
    and raises DegenerateSubstitution; classes_over never asks for it.
    """
    edges = loops(h_tf)
    if len(assignment) != len(edges):
        raise DomainError(f"{len(assignment)} choices for {len(edges)} loops")
    sigma, alpha = h_tf
    dead = set()
    sigma_fix = set()
    alpha_fix = set()
    for e, choice in zip(edges, assignment):
        if choice == KEEP:
            continue
        attach = sigma[e]
        if choice == WHITE:
            dead.update((e, alpha[e]))
            sigma_fix.add(attach)
        elif choice == BLACK:
            dead.update((e, alpha[e], attach))
            alpha_fix.add(alpha[attach])
        else:
            raise ValueError(f"unknown substitution {choice!r}")

    survivors = [e for e in range(len(sigma)) if e not in dead]
    if not survivors:
        raise DegenerateSubstitution("every edge was deleted")
    new = {e: i for i, e in enumerate(survivors)}
    return Hypermap(
        [new[e] if e in sigma_fix else new[sigma[e]] for e in survivors],
        [new[e] if e in alpha_fix else new[alpha[e]] for e in survivors])


def tf_retract(h):
    """Plant gadgets at every fixed point; the unique tf dessin over h.

    Inverse to substitute: tf_retract(substitute(h_tf, a)) is isomorphic
    to h_tf for every valid assignment a.  h must be a dessin (validated):
    the result is then one too without a check, since each gadget closes
    a sigma 3-cycle and an alpha 2-cycle and hangs off an existing edge.
    """
    sigma = list(h.sigma)
    alpha = list(h.alpha)
    m = len(sigma)
    sigma_fixed = fixed_points(sigma)
    alpha_fixed = fixed_points(alpha)
    n = m + 2 * len(sigma_fixed) + 3 * len(alpha_fixed)
    sigma.extend(range(m, n))
    alpha.extend(range(m, n))
    for x in sigma_fixed:
        u, v = m, m + 1
        m += 2
        sigma[x], sigma[v], sigma[u] = v, u, x      # 3-cycle (x v u)
        alpha[u], alpha[v] = v, u                   # loop edge is u
    for y in alpha_fixed:
        a, e, p = m, m + 1, m + 2
        m += 3
        sigma[e], sigma[a], sigma[p] = a, p, e      # 3-cycle (e a p)
        alpha[e], alpha[p] = p, e                   # loop edge is e
        alpha[y], alpha[a] = a, y
    return Hypermap(sigma, alpha)


def orbit_representatives(elements, blocks, alphabet):
    """Yield, in itertools.product order, each assignment of letters of
    alphabet to blocks that none of its images undercuts: the least of
    each orbit, starting with the first letter on every block.

    blocks are disjoint edge tuples that the automorphisms in elements
    permute (faces, or loops as 1-tuples).  elements must be a whole group,
    closed under inverses, since each psi is applied through its inverse:
    block j takes the letter of the block that psi sends it to.
    """
    block_of = {e: j for j, block in enumerate(blocks) for e in block}
    action = [[block_of[psi[block[0]]] for block in blocks] for psi in elements]
    for a in itertools.product(alphabet, repeat=len(blocks)):
        # compared as lists: a tuple per image grew a read's peak RSS 2%
        listed = list(a)
        if all([a[j] for j in g] >= listed for g in action):
            yield a


def classes_over(h_tf, elements):
    """Yield the assignment of each torsion class over the tf dessin h_tf:
    orbit_representatives under elements = Aut(h_tf), all-Keep first, less
    the one that deletes every edge.  White deletes 2 edges and Black 3,
    from disjoint sets, so that is when 2 #White + 3 #Black = n."""
    blocks = [(e,) for e in loops(h_tf)]
    for a in orbit_representatives(elements, blocks, (KEEP, WHITE, BLACK)):
        if 2 * a.count(WHITE) + 3 * a.count(BLACK) != h_tf.n:
            yield a


def expand_classes(h_tf):
    """All torsion classes over one tf class: (assignment, dessin) pairs
    in classes_over's order.  h_tf must be a torsion-free dessin, as an
    enumeration or a read gives; it is not validated here."""
    return [(a, substitute(h_tf, a))
            for a in classes_over(h_tf, _automorphism_group(h_tf))]
