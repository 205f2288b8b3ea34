"""Closed-form subgroup counts of PSL(2,Z) = Z/2 * Z/3, in integers only.

Hall (1949): if h_n counts the actions of a group on {1..n}, the number
t_n of transitive ones satisfies

    t_n = h_n - sum_{k=1}^{n-1} C(n-1, k-1) t_k h_{n-k}

(the orbit of point 1 has some size k), and there are t_n / (n-1)!
subgroups of index n.  An action of PSL(2,Z) is a pair (alpha, sigma)
with alpha^2 = sigma^3 = 1, so h_n is the product of the two root
counts.  Torsion-free subgroups are the actions where neither alpha nor
sigma fixes a point; such an action splits into orbits of the same kind,
so the same recursion counts them.

The search in generate builds each subgroup once, as one leaf, so these
counts are its leaf counts.
"""

from math import comb, factorial, perm


def _roots_of_unity(k, n, fixed_points):
    """Solutions of x^k = 1 (k prime) in S_m for m = 0..n.

    Point m is fixed, if fixed_points allows it, or lies on a k-cycle
    whose other k - 1 points are an ordered choice from the other m - 1.
    """
    out = [1]
    for m in range(1, n + 1):
        count = out[m - 1] if fixed_points else 0
        if m >= k:
            count += perm(m - 1, k - 1) * out[m - k]
        out.append(count)
    return out


def subgroup_counts(n, torsion_free=False):
    """[a_1, ..., a_n]: subgroups of PSL(2,Z) of index 1..n, the
    torsion-free ones only if torsion_free."""
    two = _roots_of_unity(2, n, not torsion_free)
    three = _roots_of_unity(3, n, not torsion_free)
    h = [x * y for x, y in zip(two, three)]
    t = [0]
    for m in range(1, n + 1):
        t.append(h[m] - sum(comb(m - 1, k - 1) * t[k] * h[m - k]
                            for k in range(1, m)))
    return [t[m] // factorial(m - 1) for m in range(1, n + 1)]
