"""Matrix-level layer: words in S and T, coset actions.

verify round-trips fixed-seed random SL(2,Z) matrices through their S/T
words.  The coset action reproduces the torsion counts and cusp widths
that every read rebuilds from the code, so no command checks it; the
tests push words through it (tests/helpers.py word_perm).  It reads a
dessin's two image tuples only, so this module imports nothing of the
package.
"""

from collections import namedtuple
from itertools import groupby


class Mat2(namedtuple("Mat2", "a b c d")):
    """2x2 integer matrix of determinant 1 (checked at construction)."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if a * d - b * c != 1:
            raise ValueError(f"determinant is {a * d - b * c}, not 1")
        return super().__new__(cls, a, b, c, d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)


_T_STEP = {"T": 1, "T^-1": -1}


def eval_word(word):
    """Left-to-right product of the letters' matrices.

    The product is kept as four plain integers and made a Mat2, which
    checks its determinant, once at the end.  Each run of equal letters is
    counted in C and multiplied in at once: k T or T^-1 letters as
    T^(+-k) = (1, +-k; 0, 1), and k S letters as S^(k mod 4), since S^4 = I.
    The cost follows the number of runs, not the word's length.
    """
    a, b, c, d = 1, 0, 0, 1
    for letter, run in groupby(word):
        k = len(list(run))
        if letter == "S":
            for _ in range(k % 4):
                a, b, c, d = b, -a, d, -c          # times S = (0, -1; 1, 0)
        else:
            k *= _T_STEP[letter]
            b, d = a * k + b, c * k + d            # times (1, k; 0, 1)
    return Mat2(a, b, c, d)


def word_of_matrix(m):
    """Decompose m: returns (word, sign) with eval_word(word) == sign * m.

    Euclidean reduction: while c != 0, strip T^q (q = a // c) and one S,
    which flips the running sign because S^-1 = -S; the tail is then
    +-T^k.  No normal form is promised, only sign-correct evaluation.
    """
    a, b, c, d = m
    word = []
    sign = 1
    while c != 0:
        q = a // c
        word.extend(["T" if q > 0 else "T^-1"] * abs(q))
        word.append("S")
        sign = -sign
        a, b, c, d = -c, -d, a - q * c, b - q * d
    # upper triangular with determinant 1: a = d = +-1, m = a * T^(a*b)
    k = a * b
    word.extend(["T" if k > 0 else "T^-1"] * abs(k))
    return word, sign * a


def coset_action(h):
    """(perm_S, perm_T) of the edge action with S -> alpha, ST -> sigma.

    perm_T = perm_S^-1 o perm_U where U = ST acts as sigma, and alpha is an
    involution, so that is e -> alpha(sigma(e)).  Its cycle type is the
    cusp-width partition (conjugate of the face permutation).
    """
    return h.alpha, tuple(h.alpha[s] for s in h.sigma)


def random_sl2(rng, bound=1000):
    """Pseudo-random determinant-1 matrix with entries up to ~bound^2."""
    while True:
        a = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if a == 0 and c == 0:
            continue
        # solve a*d - b*c = 1 by the extended Euclidean algorithm
        old_r, r = a, c
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        if old_r != 1:        # a and c must be coprime
            continue
        d, b = old_s, -old_t
        shift = rng.randint(-bound, bound)
        return Mat2(a, b + shift * a, c, d + shift * c)
