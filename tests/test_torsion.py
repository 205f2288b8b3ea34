"""Loop surgery: substitution, retraction, orbit expansion, Burnside."""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import modk3
from modk3.errors import DegenerateSubstitution, DomainError
from modk3.hypermap import (
    _candidate_roots, _is_walk_code, _reach_order, _root_code,
    automorphism_group, canonical_code, cycles, subgroup_type, validate,
    Hypermap,
)
from modk3.torsion import (
    BLACK, KEEP, WHITE, expand_classes, loops, orbit_representatives,
    substitute, tf_retract,
)

from helpers import (
    block_action, burnside_count, class_dessins, cusp_widths, loop_blocks,
    perm_from_cycles, relabel,
)

W411 = Hypermap(perm_from_cycles(6, (0, 2, 1), (3, 5, 4)),
                perm_from_cycles(6, (1, 2), (0, 3), (4, 5)))
H1 = Hypermap(perm_from_cycles(4, (1, 2, 3)),
              perm_from_cycles(4, (0, 1), (2, 3)))
IDENTITY = Hypermap((0,), (0,))


def tf_classes(n):
    return class_dessins(n, genus=0, torsion_free=True)


def by_widths(n, widths):
    picks = [h for h in tf_classes(n) if cusp_widths(h) == widths]
    assert len(picks) == 1
    return picks[0]


def test_loop_counts():
    assert loops(by_widths(6, (2, 2, 2))) == []
    assert len(loops(W411)) == 2
    assert len(loops(by_widths(18, (14, 1, 1, 1, 1)))) == 4


def test_loop_sites_are_trivalent():
    for n in (6, 12):
        for h in tf_classes(n):
            edges = loops(h)
            assert edges == sorted(edges)
            for e in edges:
                partner, attach = h.alpha[e], h.sigma[e]
                assert h.sigma[partner] == e                 # phi(e) = e
                assert partner == h.sigma[attach]            # sigma^2(e)
                assert len({e, partner, attach}) == 3        # a 3-cycle
                # the 3-cycle hangs off the rest by one alpha pair
                assert h.alpha[attach] not in (e, partner, attach)


def test_substitute_all_keep_is_identity():
    out = substitute(W411, (KEEP, KEEP))
    assert canonical_code(out) == canonical_code(W411)


def test_substitute_known_results():
    # one white + one black collapses [4,1,1] to the one-edge dessin
    out = substitute(W411, (WHITE, BLACK))
    assert subgroup_type(out) == (1, 0, 1, 1, 1)
    # both white: two order-3 points on a single width-2 cusp
    out = substitute(W411, (WHITE, WHITE))
    assert subgroup_type(out) == (2, 0, 1, 0, 2)
    # keep + black: index 3 with one order-2 point
    out = substitute(W411, (KEEP, BLACK))
    assert subgroup_type(out) == (3, 0, 2, 1, 0)
    # keep + white lands on H1
    out = substitute(W411, (KEEP, WHITE))
    assert canonical_code(out) == canonical_code(H1)


def test_substitute_double_black_degenerates():
    try:
        substitute(W411, (BLACK, BLACK))
        assert False
    except DegenerateSubstitution:
        pass


def test_substitute_index_identity():
    for n in (6, 12):
        for h in tf_classes(n):
            for _, sub in expand_classes(h):
                t = subgroup_type(sub)
                assert t.n + 3 * t.e2 + 2 * t.e3 == n
                assert t.g == 0


def test_tf_retract_of_identity():
    out = tf_retract(IDENTITY)
    assert canonical_code(out) == canonical_code(W411)


def test_tf_retract_of_h1():
    assert canonical_code(tf_retract(H1)) == canonical_code(W411)


def test_tf_retract_fixes_torsion_free():
    for h in tf_classes(12):
        assert canonical_code(tf_retract(h)) == canonical_code(h)


def test_round_trip_through_substitution():
    for n in (6, 12):
        for h in tf_classes(n):
            code = canonical_code(h)
            for a, sub in expand_classes(h):
                validate(sub)
                assert canonical_code(tf_retract(sub)) == code, a


@st.composite
def torsion_free_pairs(draw, max_k=4):
    """A random torsion-free dessin of any genus: sigma made of 3-cycles
    only and alpha without fixed points, cut down to the orbit of edge 0
    (an orbit of both keeps both properties)."""
    n = 6 * draw(st.integers(1, max_k))
    edges = draw(st.permutations(range(n)))
    sigma = perm_from_cycles(n, *(edges[i:i + 3] for i in range(0, n, 3)))
    edges = draw(st.permutations(range(n)))
    alpha = perm_from_cycles(n, *(edges[i:i + 2] for i in range(0, n, 2)))
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
@given(torsion_free_pairs(), st.data())
def test_retract_undoes_any_substitution(h, data):
    # substitute and tf_retract build their dessins without a check: a
    # gadget hangs off the rest by one alpha pair, so cutting it off keeps
    # the survivors connected and planting it keeps the pair a dessin; the
    # retraction must also be the dessin the substitution started from
    choice = tuple(data.draw(st.sampled_from((KEEP, WHITE, BLACK)))
                   for _ in loops(h))
    try:
        sub = substitute(h, choice)
    except DegenerateSubstitution:
        return
    validate(sub)
    back = tf_retract(sub)
    validate(back)
    assert canonical_code(back) == canonical_code(h), choice


@settings(max_examples=300, deadline=None)
@given(torsion_free_pairs(), st.data())
def test_walk_code_test_decides_isomorphism(h, data):
    # a read checks a retraction against its stored tf code with
    # _is_walk_code instead of a canonical walk; it must accept the
    # canonical code of any relabelling and the walk code of every candidate
    # root (so the loop-edge/partner filter drops none), and refuse the
    # canonical code of another class of the same index.  A retraction
    # always has loops; the loopless draws check the other branch
    g = relabel(h, tuple(data.draw(st.permutations(range(h.n)))))
    code = canonical_code(h)
    assert _is_walk_code(g, code)
    for root in _candidate_roots(g.sigma, g.alpha):
        assert _is_walk_code(g, _root_code(g.sigma, g.alpha, root, None))
    # another pair of the same index: swap the partners of two alpha 2-cycles
    a, c = data.draw(st.lists(st.integers(0, h.n - 1), min_size=2,
                              max_size=2, unique=True))
    b, d = h.alpha[a], h.alpha[c]
    if b != c:
        alpha = list(h.alpha)
        alpha[a], alpha[c], alpha[b], alpha[d] = c, a, d, b
        if len(_reach_order(h.sigma, alpha, 0)) == h.n:
            other = canonical_code(Hypermap(h.sigma, alpha))
            assert _is_walk_code(g, other) == (other == code)


def test_expand_411():
    h = by_widths(6, (4, 1, 1))
    out = expand_classes(h)
    assert len(out) == 5          # 6 orbits, one (double black) degenerate
    assert out[0][0] == (KEEP, KEEP)
    # one tf class and four with torsion
    assert sum(1 for _, sub in out if subgroup_type(sub).e2 == 0
               and subgroup_type(sub).e3 == 0) == 1


def test_expand_refuses_torsion_input():
    # the one-edge dessin has a loop that hangs off no 3-cycle
    try:
        expand_classes(Hypermap((0,), (0,)))
        assert False, "expanded a torsion dessin"
    except DomainError as exc:
        assert "not trivalent" in str(exc)


def test_expand_refuses_torsion_input_under_optimize():
    # python -O strips assert statements; the refusal must survive it
    code = ("from modk3.errors import DomainError\n"
            "from modk3.hypermap import Hypermap\n"
            "from modk3.torsion import expand_classes\n"
            "try:\n"
            "    print(expand_classes(Hypermap((0,), (0,))))\n"
            "except DomainError:\n"
            "    print('DomainError', __debug__)\n")
    src = str(Path(modk3.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "DomainError False\n"


def test_expand_5511():
    out = expand_classes(by_widths(12, (5, 5, 1, 1)))
    assert len(out) == 6
    kinds = [(subgroup_type(s).e2, subgroup_type(s).e3) for _, s in out]
    assert sum(1 for e2, e3 in kinds if e2 == 0 and e3 == 0) == 1
    assert sum(1 for e2, e3 in kinds if e2 > 0) == 3
    assert sum(1 for e2, e3 in kinds if e2 == 0 and e3 == 1) == 1
    assert sum(1 for e2, e3 in kinds if e2 == 0 and e3 == 2) == 1


def test_expand_9111():
    out = expand_classes(by_widths(12, (9, 1, 1, 1)))
    assert len(out) == 11
    kinds = [(subgroup_type(s).e2, subgroup_type(s).e3) for _, s in out]
    assert sum(1 for e2, e3 in kinds if e2 == 0 and e3 == 0) == 1
    assert sum(1 for e2, e3 in kinds if e2 > 0) == 7
    assert sum(1 for e2, e3 in kinds if (e2, e3) == (0, 1)) == 1
    assert sum(1 for e2, e3 in kinds if (e2, e3) == (0, 2)) == 1
    assert sum(1 for e2, e3 in kinds if (e2, e3) == (0, 3)) == 1


def test_expansions_are_pairwise_distinct():
    for n in (6, 12):
        for h in tf_classes(n):
            subs = [canonical_code(s) for _, s in expand_classes(h)]
            assert len(subs) == len(set(subs))


def test_expand_agrees_with_burnside():
    # [4,1,1] is the only class in range with a degenerate assignment; the
    # face subsets that the star rule sorts are counted by Burnside too
    for n in (6, 12, 18, 24):
        for h in tf_classes(n):
            aut = automorphism_group(h)
            want = burnside_count(block_action(aut, loop_blocks(h)), 3)
            if cusp_widths(h) == (4, 1, 1):
                want -= 1
            assert len(expand_classes(h)) == want
            faces = cycles(h.phi())
            assert len(list(orbit_representatives(aut, faces, (0, 1)))) \
                == burnside_count(block_action(aut, faces), 2)


def test_burnside_table_values():
    z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    z4 = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    triv2 = ((0, 1),)
    # each group acts on its points as blocks of one edge each
    for elements, want in ((z3, 11), (z4, 24), (triv2, 9)):
        points = [(j,) for j in range(len(elements[0]))]
        assert burnside_count(block_action(elements, points), 3) == want
        assert len(list(orbit_representatives(
            elements, points, (KEEP, WHITE, BLACK)))) == want
    # not a group: the orbit average 14/3 is no count
    try:
        burnside_count(((0, 1, 2), (0, 2, 1), (1, 2, 0)), 2)
        assert False, "a non-group action was averaged"
    except DomainError:
        pass
