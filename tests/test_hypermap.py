"""Permutation plumbing, type invariants, canonical codes, automorphisms."""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

from modk3.errors import DomainError, Modk3Error, NotTransitive, OrderViolation
from modk3.hypermap import (
    Hypermap, _canonical_ties, _candidate_roots, _face_count, _genus,
    automorphism_group, canonical_code, canonical_form, cycles,
    fixed_points, from_code, subgroup_type, validate,
)

from helpers import (
    block_action, compose, cusp_widths, cycle_type, identity_perm, inverse,
    loop_blocks, loop_count, perm_from_cycles, reference_automorphisms,
    relabel, white_vertex_types,
)

# Hand-built reference dessins -------------------------------------------
#
# FULL: the one-edge dessin of the full group, type (1; 0, 1, 1, 1).
# W411: torsion-free index 6 with cusp widths (4, 1, 1).
# H1:   (4; 0, 2, 0, 1) -- one order-3 fixed point, widths (3, 1).
# H2:   (2; 0, 1, 0, 2) -- two order-3 fixed points, width (2,).

FULL = Hypermap((0,), (0,))
W411 = Hypermap(perm_from_cycles(6, (0, 2, 1), (3, 5, 4)),
                perm_from_cycles(6, (1, 2), (0, 3), (4, 5)))
H1 = Hypermap(perm_from_cycles(4, (1, 2, 3)),
              perm_from_cycles(4, (0, 1), (2, 3)))
H2 = Hypermap((0, 1), (1, 0))

MODELS = [FULL, W411, H1, H2]


def a4_regular():
    """Index-12 dessin with widths (3,3,3,3): A4 acting on itself."""
    pts = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4)
           for d in range(4) if len({a, b, c, d}) == 4]
    even = [p for p in pts if sum(1 for i in range(4) for j in range(i + 1, 4)
                                  if p[i] > p[j]) % 2 == 0]
    assert len(even) == 12
    idx = {p: i for i, p in enumerate(even)}
    u = (1, 2, 0, 3)   # 3-cycle on the first three letters
    v = (1, 0, 3, 2)   # double transposition
    mult = lambda g, x: tuple(x[g[i]] for i in range(4))
    sigma = tuple(idx[mult(p, u)] for p in even)
    alpha = tuple(idx[mult(p, v)] for p in even)
    return validate(Hypermap(sigma, alpha))


def test_perm_helpers():
    p = perm_from_cycles(5, (0, 1, 2), (3, 4))
    assert p == (1, 2, 0, 4, 3)
    assert compose(p, inverse(p)) == identity_perm(5)
    q = perm_from_cycles(5, (0, 3))
    # compose(p, q) applies q first
    assert compose(p, q)[0] == p[3]
    assert cycles(p) == [(0, 1, 2), (3, 4)]
    assert cycle_type(p) == (3, 2)
    assert fixed_points(perm_from_cycles(4, (1, 2))) == [0, 3]


def test_validate_rejects_bad_orders():
    try:
        validate(Hypermap((1, 0), (0, 1)))   # sigma is an involution
        assert False
    except OrderViolation:
        pass
    try:
        validate(Hypermap((0, 0), (0, 1)))   # not even a permutation
        assert False
    except OrderViolation:
        pass
    try:
        validate(Hypermap((0, 1, 2), (1, 0)))  # size mismatch
        assert False
    except OrderViolation:
        pass


def test_validate_rejects_disconnected():
    for fn in (validate, canonical_code, automorphism_group):
        try:
            fn(Hypermap((0, 1), (0, 1)))
            assert False, fn.__name__
        except NotTransitive:
            pass


def test_empty_and_misfit_codes_are_refused():
    # the one-byte code 00 decodes to the empty pair, which is no dessin
    for fn in (validate, automorphism_group):
        try:
            fn(from_code(b"\x00"))
            assert False, fn.__name__
        except NotTransitive:
            pass
    for code in (b"", b"\x01\x00", bytes([2, 1, 0, 1, 0, 0])):
        try:
            from_code(code)
            assert False, code
        except DomainError:
            pass


def test_model_types():
    for h in MODELS:
        validate(h)
    assert subgroup_type(FULL) == (1, 0, 1, 1, 1)
    assert subgroup_type(W411) == (6, 0, 3, 0, 0)
    assert subgroup_type(H1) == (4, 0, 2, 0, 1)
    assert subgroup_type(H2) == (2, 0, 1, 0, 2)
    assert cusp_widths(W411) == (4, 1, 1)
    assert cusp_widths(H1) == (3, 1)
    assert cusp_widths(H2) == (2,)
    assert loop_count(W411) == 2
    assert loop_count(H2) == 0
    a4 = a4_regular()
    assert subgroup_type(a4) == (12, 0, 4, 0, 0)
    assert cusp_widths(a4) == (3, 3, 3, 3)


def test_widths_sum_to_index():
    for h in MODELS + [a4_regular()]:
        assert sum(cusp_widths(h)) == h.n


def test_phi_convention():
    # phi applies alpha first: on W411 edge 0 goes to alpha 3 then sigma 5
    assert W411.phi()[0] == 5
    assert W411.phi() == compose(W411.sigma, W411.alpha)


def test_canonical_code_shape():
    for h in MODELS:
        code = canonical_code(h)
        assert code[0] == h.n
        assert len(code) == 1 + 2 * h.n


def test_code_round_trip():
    for h in MODELS + [a4_regular()]:
        code = canonical_code(h)
        back = from_code(code)
        validate(back)
        assert canonical_code(back) == code
        assert subgroup_type(back) == subgroup_type(h)


def test_code_is_relabel_invariant():
    rng = random.Random(7)
    for h in MODELS + [a4_regular()]:
        code = canonical_code(h)
        widths = cusp_widths(h)
        for _ in range(40):
            p = list(range(h.n))
            rng.shuffle(p)
            moved = relabel(h, tuple(p))
            validate(moved)
            assert canonical_code(moved) == code
            assert cusp_widths(moved) == widths
            assert subgroup_type(moved) == subgroup_type(h)


def test_codes_separate_the_models():
    codes = {canonical_code(h) for h in MODELS}
    assert len(codes) == len(MODELS)


def test_automorphism_groups():
    assert len(automorphism_group(FULL)) == 1
    assert len(automorphism_group(H1)) == 1
    assert len(automorphism_group(H2)) == 2
    aut = automorphism_group(W411)
    assert len(aut) == 2
    assert aut[0] == identity_perm(6)
    # regular action: the full right-multiplication group survives
    assert len(automorphism_group(a4_regular())) == 12


def test_automorphism_elements_commute_with_both():
    for h in MODELS + [a4_regular()]:
        aut = automorphism_group(h)
        assert h.n % len(aut) == 0
        for psi in aut:
            assert compose(psi, h.sigma) == compose(h.sigma, psi)
            assert compose(psi, h.alpha) == compose(h.alpha, psi)


def test_loop_action():
    aut = automorphism_group(W411)
    blocks = loop_blocks(W411)
    assert blocks == [f for f in cycles(W411.phi()) if len(f) == 1]
    assert len(blocks) == 2
    # the nontrivial automorphism must swap the two loops
    assert block_action(aut, blocks) == ((0, 1), (1, 0))


def test_face_action_is_consistent():
    rng = random.Random(3)
    for h in MODELS + [a4_regular()]:
        aut = automorphism_group(h)
        faces = cycles(h.phi())
        for psi, fa in zip(aut, block_action(aut, faces)):
            for i, face in enumerate(faces):
                for e in face:
                    assert psi[e] in faces[fa[i]]
            assert sorted(fa) == list(range(len(faces)))
        loop_faces = [f for f in faces if len(f) == 1]
        if loop_faces:
            for la in block_action(aut, loop_faces):
                assert sorted(la) == list(range(len(loop_faces)))
        rng.shuffle(list(aut))  # order should not matter for checks


def test_white_vertex_types():
    # both trivalent vertices of W411 read (4, 4, 1)
    types = white_vertex_types(W411)
    assert len(types) == 2
    assert set(types.values()) == {(4, 4, 1)}
    # all four vertices of the (3,3,3,3) dessin read (3, 3, 3)
    types = white_vertex_types(a4_regular())
    assert len(types) == 4
    assert set(types.values()) == {(3, 3, 3)}
    # no trivalent vertices at all on the one-edge dessin
    assert white_vertex_types(FULL) == {}


def test_white_vertex_type_shape():
    # normalization lands in "a >= b >= c or a > c > b"
    for h in MODELS + [a4_regular()]:
        for trip in white_vertex_types(h).values():
            a, b, c = trip
            assert (a >= b >= c) or (a > c > b)


def test_walks_refuse_a_pair_that_is_not_a_permutation():
    # sigma sends 0 and 1 to 1, so the walk from 0 reaches 1 twice and
    # never comes back to 0
    h = Hypermap((1, 1, 2), (0, 1, 2))
    for fn, arg in ((subgroup_type, h), (cusp_widths, h), (loop_count, h),
                    (cycles, h.sigma), (cycles, h.phi())):
        try:
            fn(arg)
            assert False, f"{fn.__name__} walked a non-permutation"
        except OrderViolation:
            pass
    # an image past n and unequal lengths are no permutation pair either,
    # and the empty pair is no dessin: the entries name each as validate
    # does, since they call it first
    past_n = Hypermap((3, 0, 1), (0, 1, 2))
    for pair, error in ((past_n, OrderViolation),
                        (Hypermap((0, 1), (0,)), OrderViolation),
                        (Hypermap((), ()), NotTransitive)):
        for fn in (subgroup_type, cusp_widths, loop_count, validate,
                   automorphism_group):
            try:
                fn(pair)
                assert False, f"{fn.__name__} accepted {pair}"
            except error:
                pass
    try:
        cycles(past_n.sigma)
        assert False, "cycles walked an image past n"
    except OrderViolation:
        pass


def test_walks_refuse_a_negative_image():
    # indexing wraps -1 to the last edge, so an unchecked walk runs on and
    # returns a result; in alpha the -1 only ever serves as an index
    pairs = (Hypermap((-1, 0), (0, 1)), Hypermap((0, 1), (-1, 0)))
    calls = [(cycles, (-1, 0))] + [
        (fn, h) for h in pairs
        for fn in (subgroup_type, cusp_widths, canonical_code, automorphism_group)]
    for fn, arg in calls:
        try:
            fn(arg)
            assert False, f"{fn.__name__} walked a negative image in {arg}"
        except OrderViolation:
            pass


def test_subgroup_type_refuses_a_non_dessin():
    # two fixed points each way on two edges: two one-edge dessins side by
    # side, which validate refuses before any type is read
    h = Hypermap((0, 1), (0, 1))
    try:
        subgroup_type(h)
        assert False, "a split pair was accepted"
    except NotTransitive:
        pass
    # the search's leaves reach the type unvalidated, so it keeps its own
    # check: 2 edges, 2 faces and 2 fixed points each way give 12g = -12,
    # no genus at all
    try:
        _genus(2, 2, 2, 2)
        assert False, "Riemann-Hurwitz violation was accepted"
    except DomainError as exc:
        assert "Riemann-Hurwitz" in str(exc)


def reference_root_code(h, root):
    """Serialize the breadth-first relabeling from one root, in full."""
    n, sigma, alpha = h.n, h.sigma, h.alpha
    new = [-1] * n
    order = [root]
    new[root] = 0
    head = 0
    while head < len(order):
        e = order[head]
        head += 1
        for f in (sigma[e], alpha[e]):
            if new[f] < 0:
                new[f] = len(order)
                order.append(f)
    code = bytearray([n])
    for img in (sigma, alpha):
        buf = [0] * n
        for e in range(n):
            buf[new[e]] = new[img[e]]
        code.extend(buf)
    return bytes(code)


def reference_code(h):
    """The least root code over every root.

    The plain definition of the canonical code, without early exit or
    candidate roots.
    """
    return min(reference_root_code(h, root) for root in range(h.n))


@st.composite
def transitive_hypermaps(draw, max_n=16, sigma_fixed_points=True):
    """A random (sigma, alpha) pair cut down to the orbit of edge 0.

    With sigma_fixed_points=False, sigma is drawn from 3-cycles only, which
    the cut keeps; alpha may still fix edges.
    """
    if sigma_fixed_points:
        n = draw(st.integers(1, max_n))
        triples = draw(st.integers(0, n // 3))
    else:
        triples = draw(st.integers(1, max_n // 3))
        n = 3 * triples
    edges = draw(st.permutations(range(n)))
    sigma = perm_from_cycles(n, *(edges[3 * i:3 * i + 3] for i in range(triples)))
    edges = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    alpha = perm_from_cycles(n, *(edges[2 * i:2 * i + 2] for i in range(pairs)))
    orbit = [0]
    pos = {0: 0}
    for e in orbit:
        for f in (sigma[e], alpha[e]):
            if f not in pos:
                pos[f] = len(orbit)
                orbit.append(f)
    return validate(Hypermap([pos[sigma[e]] for e in orbit],
                             [pos[alpha[e]] for e in orbit]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(transitive_hypermaps(),
                 transitive_hypermaps(max_n=18, sigma_fixed_points=False)),
       st.data())
def test_canonical_code_matches_reference(h, data):
    want = reference_code(h)
    p = data.draw(st.permutations(range(h.n)))
    for g in (h, relabel(h, tuple(p))):
        assert canonical_code(g) == want
        # the roots that tie the minimal code are one free Aut-orbit, and
        # the group built from them is the reference's, identity first
        code, roots = canonical_form(g)
        reference = reference_automorphisms(g)
        assert code == want and len(roots) == len(reference)
        assert automorphism_group(g) == reference
        # the filter keeps exactly the roots with the least two sigma
        # bytes, so every root that reaches the minimum survives it
        codes = [reference_root_code(g, root) for root in range(g.n)]
        least = min(code[1:3] for code in codes)
        candidates = _candidate_roots(g.sigma, g.alpha)
        assert candidates == [r for r in range(g.n) if codes[r][1:3] == least]
        assert all(r in candidates for r in range(g.n) if codes[r] == want)
        # a read proves a stored code against its own bytes: each root's
        # code, and any labelling, passes with the tie count iff it is the
        # canonical code, and is refused with 0 otherwise
        for c in set(codes) | {bytes([g.n, *g.sigma, *g.alpha])}:
            assert _canonical_ties(from_code(c), c) == (
                len(roots) if c == want else 0)
    # and so is every labelling one transposition of labels away from the
    # canonical one, which its breadth-first walk from edge 0 tells apart
    aut = len(canonical_form(h)[1])
    for x, y in itertools.combinations(range(h.n), 2):
        p = list(range(h.n))
        p[x], p[y] = y, x
        t = relabel(from_code(want), p)
        c = bytes([t.n, *t.sigma, *t.alpha])
        assert _canonical_ties(t, c) == (aut if c == want else 0)


def test_automorphism_group_matches_the_reference_on_the_catalog(full_catalog):
    for rec in full_catalog:
        h = from_code(bytes.fromhex(rec.canonical_code))
        aut = automorphism_group(h)
        assert aut == reference_automorphisms(h), rec.id
        assert len(aut) == rec.aut_order, rec.id


@settings(max_examples=200, deadline=None)
@given(transitive_hypermaps())
def test_face_walk_matches_phi_cycles(h):
    faces = cycles(h.phi())
    assert subgroup_type(h).h == len(faces)
    assert _face_count(h.sigma, h.alpha) == len(faces)
    assert cusp_widths(h) == tuple(sorted((len(f) for f in faces), reverse=True))
    assert loop_count(h) == sum(1 for f in faces if len(f) == 1)


def _error_class(fn, h):
    try:
        fn(h)
    except Modk3Error as exc:
        return type(exc)
    return None


_ENTRIES = st.lists(st.integers(-2, 8), max_size=7)


# sigma of order 2, which the walks alone took for a dessin; and the
# genus-1 index-6 dessin beside the one-edge dessin, which they took for a
# genus-0 class with cusp widths (6, 1)
@example(Hypermap((1, 0), (0, 1)))
@example(Hypermap((1, 3, 4, 0, 5, 2, 6), (2, 4, 0, 5, 1, 3, 6)))
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(Hypermap, _ENTRIES, _ENTRIES),
                 st.integers(0, 7).flatmap(lambda n: st.builds(
                     Hypermap, st.permutations(range(n)),
                     st.permutations(range(n)))),
                 transitive_hypermaps(max_n=7)))
def test_public_entries_accept_exactly_what_validate_accepts(h):
    want = _error_class(validate, h)
    for fn in (subgroup_type, cusp_widths, canonical_code, automorphism_group):
        assert _error_class(fn, h) is want, (fn.__name__, h)
