"""Fibre table invariants and the Euler-number formulas."""

from collections import namedtuple

from modk3.errors import DomainError
from modk3.hypermap import Hypermap, canonical_code
from modk3.slwords import Mat2

from helpers import (
    I2, EulerInput, corollary_euler, euler_number, is_monodromy_at,
    kodaira_fibre, minimal_euler, minimal_euler_tf, mul, perm_from_cycles,
    star_partner,
)

Rec = namedtuple("Rec", "genus tf_code")

W411_CODE = canonical_code(Hypermap(perm_from_cycles(6, (0, 2, 1), (3, 5, 4)),
                                    perm_from_cycles(6, (1, 2), (0, 3), (4, 5))))


def test_fibre_table_rows():
    assert kodaira_fibre("I0").euler_number == 0
    assert kodaira_fibre("I1").euler_number == 1
    assert kodaira_fibre("Ib", 5).euler_number == 5
    assert kodaira_fibre("I0*").euler_number == 6
    assert kodaira_fibre("Ib*", 5).euler_number == 11
    for name, e in [("II", 2), ("III", 3), ("IV", 4),
                    ("IV*", 8), ("III*", 9), ("II*", 10)]:
        assert kodaira_fibre(name).euler_number == e


def test_fibre_monodromies():
    assert kodaira_fibre("I1").local_monodromy == Mat2(1, 1, 0, 1)
    assert kodaira_fibre("I0*").local_monodromy == Mat2(-1, 0, 0, -1)
    assert kodaira_fibre("II").local_monodromy == Mat2(1, 1, -1, 0)
    # II's matrix has order exactly 6
    m = kodaira_fibre("II").local_monodromy
    acc = m
    for k in range(1, 6):
        assert acc != I2
        acc = mul(acc, m)
    assert acc == I2


def test_star_pairing():
    pairs = [("I0*", "I0"), ("IV*", "II"), ("III*", "III"), ("II*", "IV")]
    for starred, plain in pairs:
        assert star_partner(starred) == plain
        f, g = kodaira_fibre(starred), kodaira_fibre(plain)
        assert f.euler_number == g.euler_number + 6
        assert f.local_monodromy == -g.local_monodromy
    for b in (1, 2, 7):
        f, g = kodaira_fibre("Ib*", b), kodaira_fibre("Ib", b)
        assert f.euler_number == g.euler_number + 6
        assert f.local_monodromy == -g.local_monodromy
        assert star_partner(f.name) == "Ib"


def test_fibre_traces():
    # parabolic for the I-series, finite order otherwise
    for b in (1, 2, 3):
        m = kodaira_fibre("Ib", b).local_monodromy
        assert m.a + m.d == 2 and m != I2
        m = kodaira_fibre("Ib*", b).local_monodromy
        assert m.a + m.d == -2
    for name in ("II", "III", "IV", "IV*", "III*", "II*", "I0*"):
        m = kodaira_fibre(name).local_monodromy
        acc = m
        for _ in range(12):
            if acc == I2:
                break
            acc = mul(acc, m)
        assert acc == I2


def test_ade_labels():
    assert kodaira_fibre("I0").ade_label is None
    assert kodaira_fibre("II").ade_label is None
    assert kodaira_fibre("Ib", 3).ade_label == "A2"
    assert kodaira_fibre("I0*").ade_label == "D4"
    assert kodaira_fibre("Ib*", 3).ade_label == "D7"
    assert kodaira_fibre("III").ade_label == "A1"
    assert kodaira_fibre("IV*").ade_label == "E6"
    assert kodaira_fibre("III*").ade_label == "E7"
    assert kodaira_fibre("II*").ade_label == "E8"


def test_j_tag_coincidences():
    # II and IV* share the same local j-expansion shape, as do IV and II*
    assert kodaira_fibre("II").j_behavior == kodaira_fibre("IV*").j_behavior
    assert kodaira_fibre("IV").j_behavior == kodaira_fibre("II*").j_behavior
    assert kodaira_fibre("II").j_behavior != kodaira_fibre("IV").j_behavior


def test_bad_fibre_names():
    try:
        kodaira_fibre("V")
        assert False
    except DomainError:
        pass
    try:
        kodaira_fibre("Ib", 0)
        assert False
    except DomainError:
        pass


def test_euler_number_examples():
    assert euler_number(EulerInput(0, 1, 12, [], [])) == 12
    assert euler_number(EulerInput(2, 1, 12, [], [])) == 24
    assert euler_number(EulerInput(1, 1, 18, [], [])) == 24


def test_euler_number_ramification():
    # unramified preimages contribute 3 (2-torsion) or 2 (3-torsion) each
    assert euler_number(EulerInput(0, 1, 12, [0], [])) == 15
    assert euler_number(EulerInput(0, 1, 12, [], [0])) == 14
    # fully ramified points contribute nothing
    assert euler_number(EulerInput(0, 1, 12, [1], [])) == 12
    assert euler_number(EulerInput(0, 1, 12, [], [2])) == 12
    # t = 1 leaves fractional part 2/3
    assert euler_number(EulerInput(0, 1, 12, [], [1])) == 16
    # l scales the index term only
    assert euler_number(EulerInput(0, 2, 12, [], [])) == 24


def test_euler_number_refuses_negative_input():
    for inp in (EulerInput(-1, 1, 12, [], []), EulerInput(0, 0, 12, [], []),
                EulerInput(0, 1, 12, [-1], []), EulerInput(0, 1, 12, [], [-2])):
        try:
            euler_number(inp)
            assert False, inp
        except DomainError:
            pass


def test_corollary_euler():
    assert corollary_euler(0, 12, 0, 0) == 12
    assert corollary_euler(1, 6, 0, 0) == 12
    assert corollary_euler(0, 4, 0, 1) == 6
    assert corollary_euler(0, 1, 1, 1) == 6
    for e2 in range(3):
        for e3 in range(4):
            assert corollary_euler(0, 10, e2, e3) == 10 + 3 * e2 + 2 * e3


def test_minimal_euler_tf():
    assert minimal_euler_tf(12) == 12
    assert minimal_euler_tf(18) == 24
    assert minimal_euler_tf(6) == 12
    assert minimal_euler_tf(24) == 24
    try:
        minimal_euler_tf(8)
        assert False
    except DomainError:
        pass


def test_minimal_euler_from_record():
    assert minimal_euler(Rec(0, W411_CODE.hex())) == 12
    assert minimal_euler(Rec(0, bytes([24]).hex())) == 24
    assert minimal_euler(Rec(0, bytes([18]).hex())) == 24


def test_is_monodromy_at():
    k3 = 24
    assert is_monodromy_at(Rec(0, bytes([24]).hex()), k3)
    assert is_monodromy_at(Rec(0, W411_CODE.hex()), k3)
    assert not is_monodromy_at(Rec(0, bytes([30]).hex()), k3)   # tf index 30
    assert not is_monodromy_at(Rec(1, bytes([12]).hex()), k3)   # genus 1
    assert not is_monodromy_at(Rec(0, bytes([12]).hex()), 18)   # 12 does not divide
    assert is_monodromy_at(Rec(0, bytes([12]).hex()), 12)
