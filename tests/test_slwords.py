"""Word decomposition, coset actions, membership -- the group-theory check."""

import random

from hypothesis import given, settings, strategies as st

from modk3.hypermap import Hypermap, subgroup_type
from modk3.slwords import (
    Mat2, coset_action, eval_word, random_sl2, word_of_matrix,
)

from helpers import (
    I2, S, T, T_INV, class_dessins, compose, cusp_widths, cycle_type,
    identity_perm, inv, member_sign, mul, perm_from_cycles, word_perm,
)

FULL = Hypermap((0,), (0,))
H1 = Hypermap(perm_from_cycles(4, (1, 2, 3)),
              perm_from_cycles(4, (0, 1), (2, 3)))
H2 = Hypermap((0, 1), (1, 0))


def test_mat2_basics():
    assert mul(S, S) == -I2
    assert mul(T, T_INV) == I2
    assert inv(S) == -S
    m = Mat2(2, 1, 1, 1)
    assert mul(m, inv(m)) == I2
    try:
        Mat2(1, 0, 0, 2)
        assert False
    except ValueError:
        pass


def test_eval_word():
    assert eval_word([]) == I2
    assert eval_word(["S", "S"]) == -I2
    assert eval_word(["S", "T", "S", "T", "S", "T"]) == -I2   # (ST)^3
    assert eval_word(["T", "T", "T^-1"]) == T


def letter_product(word):
    """eval_word's definition, one matrix product per letter."""
    m = I2
    for letter in word:
        m = mul(m, {"S": S, "T": T, "T^-1": T_INV}[letter])
    return m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["S", "T", "T^-1"]),
                          st.integers(1, 40)), max_size=12))
def test_eval_word_equals_the_letter_product(runs):
    # runs of equal letters, long T^q runs and S S among them
    word = [letter for letter, k in runs for _ in range(k)]
    assert eval_word(word) == letter_product(word)


def test_word_of_matrix_examples():
    assert word_of_matrix(T) == (["T"], 1)
    word, sign = word_of_matrix(-I2)
    assert word == [] and sign == -1
    word, sign = word_of_matrix(S)
    assert eval_word(word) == S and sign == 1


def test_word_round_trip_random_matrices():
    rng = random.Random(11)
    for _ in range(1000):
        m = random_sl2(rng)
        word, sign = word_of_matrix(m)
        got = eval_word(word)
        assert got == Mat2(sign * m.a, sign * m.b, sign * m.c, sign * m.d)


def test_word_round_trip_random_words():
    rng = random.Random(12)
    for _ in range(1000):
        w = [rng.choice(["S", "T", "T^-1"]) for _ in range(rng.randint(0, 30))]
        m = eval_word(w)
        word, sign = word_of_matrix(m)
        assert eval_word(word) == Mat2(sign * m.a, sign * m.b,
                                       sign * m.c, sign * m.d)


def test_coset_action_identity():
    perm_s, perm_t = coset_action(FULL)
    assert perm_s == (0,) and perm_t == (0,)


def test_coset_action_cycle_data():
    for n in range(1, 7):
        for h in class_dessins(n):
            t = subgroup_type(h)
            perm_s, perm_t = coset_action(h)
            assert sum(1 for e in range(h.n) if perm_s[e] == e) == t.e2
            assert sum(1 for e in range(h.n) if h.sigma[e] == e) == t.e3
            assert cycle_type(perm_t) == cusp_widths(h)


def test_triple_two_class_has_222_translation():
    picks = [h for h in class_dessins(6, genus=0, torsion_free=True)
             if cusp_widths(h) == (2, 2, 2)]
    _, perm_t = coset_action(picks[0])
    assert cycle_type(perm_t) == (2, 2, 2)


def test_word_perm_is_a_homomorphism_on_generators():
    for h in (H1, H2):
        # ST acts as sigma, S as alpha
        assert word_perm(h, ["S", "T"]) == h.sigma
        assert word_perm(h, ["S"]) == h.alpha
        assert word_perm(h, ["S", "S"]) == identity_perm(h.n)
        assert word_perm(h, ["S", "T"] * 3) == identity_perm(h.n)


def test_word_perm_respects_products():
    rng = random.Random(13)
    for h in (H1, H2):
        for _ in range(50):
            w1 = [rng.choice(["S", "T", "T^-1"]) for _ in range(rng.randint(0, 8))]
            w2 = [rng.choice(["S", "T", "T^-1"]) for _ in range(rng.randint(0, 8))]
            assert word_perm(h, w1 + w2) == compose(word_perm(h, w1),
                                                    word_perm(h, w2))


def test_full_group_membership():
    rng = random.Random(14)
    for _ in range(20):
        assert member_sign(FULL, 0, random_sl2(rng))[0]


def test_t_membership_reads_cusp_width():
    # H1 has cusps of width 3 and 1; T stabilizes exactly the width-1 root
    _, perm_t = coset_action(H1)
    width1_roots = [e for e in range(4) if perm_t[e] == e]
    assert len(width1_roots) == 1
    for e in range(4):
        assert member_sign(H1, e, T)[0] == (e in width1_roots)


def test_index_two_membership():
    # alpha swaps the two cosets, so S sits outside but S^2 = -I inside
    assert not member_sign(H2, 0, S)[0]
    member, sign = member_sign(H2, 0, -I2)
    assert member and sign == -1
    member, sign = member_sign(FULL, 0, -I2)
    assert member and sign == -1
    # T has infinite order and H2's single cusp has width 2
    assert not member_sign(H2, 0, T)[0]
    assert member_sign(H2, 0, mul(T, T))[0]


def test_membership_is_root_covariant():
    rng = random.Random(15)
    classes = class_dessins(6)
    for h in classes[:8]:
        for _ in range(10):
            m = random_sl2(rng, bound=20)
            g = random_sl2(rng, bound=20)
            gw, _ = word_of_matrix(g)
            root = rng.randrange(h.n)
            conj = mul(mul(g, m), inv(g))
            moved = word_perm(h, gw)[root]
            assert member_sign(h, root, m)[0] == member_sign(h, moved, conj)[0]


def test_random_sl2_determinants():
    rng = random.Random(16)
    for _ in range(200):
        m = random_sl2(rng)
        assert m.a * m.d - m.b * m.c == 1
