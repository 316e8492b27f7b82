"""An independent oracle for the restricted-module search on the classical types.

Weyl's formula is evaluated in the epsilon coordinates of Bourbaki's Planches
I-IV, as a product over positive roots written out here; from the package
only LieType, build_root_datum, default_scan_types and the two functions
under test, the search and weyl_dimension, are read.  The coordinates are
doubled, x = 2(lambda + rho) and r = 2 rho, so the half-integral weights of
B and D stay integral.  A root e_i + s e_j (s = -1 or +1) then gives the
factor (x_i + s x_j) / (r_i + s r_j), and a root e_i (B) or 2e_i (C) gives
x_i / r_i, written below as s = 0, j = i.  Every factor is at least 1, so a
product stops once it passes the bound.
"""

import math
from collections import Counter

from orthoreps.irreps import default_scan_types, enumerate_restricted
from orthoreps.root_data import LieType, build_root_datum
from orthoreps.weights import weyl_dimension


def positive_roots(family, m):
    """(i, j, s) for each positive root, in ascending order of <rho, root^vee>."""
    if family == "A":
        return sorted(((i, j, -1) for i in range(m + 1) for j in range(i + 1, m + 1)),
                      key=lambda root: root[1] - root[0])
    roots = [(i, j, s) for i in range(m) for j in range(i + 1, m) for s in (-1, 1)]
    if family in "BC":
        roots += [(i, i, 0) for i in range(m)]
    rho = doubled_rho(family, m)
    return sorted(roots, key=lambda root: factor(rho, root))


def doubled_rho(family, m):
    """2 rho in epsilon coordinates (Bourbaki)."""
    if family == "A":
        return [2 * (m - i) for i in range(m + 1)]
    top = {"B": 2 * m - 1, "C": 2 * m, "D": 2 * m - 2}[family]
    return [top - 2 * i for i in range(m)]


def doubled_weight(family, m, a):
    """2 lambda in epsilon coordinates, for lambda = sum a_k omega_k (Bourbaki labels).

    omega_k = e_1 + ... + e_k, except omega_m = (e_1 + ... + e_m) / 2 for B,
    and for D omega_{m-1} = (e_1 + ... + e_{m-1} - e_m) / 2 and
    omega_m = (e_1 + ... + e_m) / 2.
    """
    size = m + 1 if family == "A" else m
    plain = {"A": m, "B": m - 1, "C": m, "D": m - 2}[family]
    v, run = [0] * size, 0
    for k in range(plain, 0, -1):
        run += a[k - 1]
        v[k - 1] = 2 * run
    if family == "B":
        v = [c + a[m - 1] for c in v]
    if family == "D":
        v = [c + a[m - 1] + a[m - 2] for c in v]
        v[m - 1] -= 2 * a[m - 2]
    return v


def factor(vec, root):
    i, j, s = root
    return vec[i] + s * vec[j]


def dimension_up_to(family, m, roots, a, bound):
    """dim V(lambda), or None once Weyl's product passes bound."""
    rho = doubled_rho(family, m)
    x = [w + r for w, r in zip(doubled_weight(family, m, a), rho)]
    num = den = 1
    for root in roots:
        top, bottom = factor(x, root), factor(rho, root)
        if top != bottom:
            num, den = num * top, den * bottom
            if num > bound * den:
                return None
    dim, rem = divmod(num, den)
    assert rem == 0, (family, m, a)
    return dim


def dimension(family, m, roots, a):
    """dim V(lambda) from Weyl's product over every positive root, with no cut-off.

    Equal values among the numerators and denominators cancel before anything
    is multiplied, so a product of some 40,000 factors stays cheap.
    """
    rho = doubled_rho(family, m)
    x = [w + r for w, r in zip(doubled_weight(family, m, a), rho)]
    surplus = Counter(factor(x, root) for root in roots)
    surplus.subtract(factor(rho, root) for root in roots)
    num = math.prod(v**c for v, c in surplus.items() if c > 0)
    dim, rem = divmod(num, math.prod(v**-c for v, c in surplus.items() if c < 0))
    assert rem == 0, (family, m, a)
    return dim


def oracle_search(family, m, bound):
    """{weight: dim} over the down-set dim V(lambda) <= bound, one raise at a time.

    A weight that fits stays fitting when a coordinate is lowered, so every
    one is reached from 0; a column whose fundamental module does not fit
    is never raised.
    """
    roots = positive_roots(family, m)
    zero = (0,) * m

    def raise_at(a, c):
        return a[:c] + (a[c] + 1,) + a[c + 1:]

    active = [c for c in range(m)
              if dimension_up_to(family, m, roots, raise_at(zero, c), bound) is not None]
    found, seen, todo = {zero: 1}, {zero}, [zero]
    while todo:
        a = todo.pop()
        for c in active:
            b = raise_at(a, c)
            if b not in seen:
                seen.add(b)
                dim = dimension_up_to(family, m, roots, b, bound)
                if dim is not None:
                    found[b] = dim
                    todo.append(b)
    return found


def test_oracle_pins():
    # Values the oracle must give on its own: A1 L(a), the spin and
    # half-spin modules, C_m's omega_2 and the D_m adjoint.
    assert oracle_search("A", 1, 9) == {(a,): a + 1 for a in range(9)}
    for m in (4, 5, 6):
        spin = (0,) * (m - 1) + (1,)
        assert dimension_up_to("B", m, positive_roots("B", m), spin, 10**6) == 2**m
        for half in (spin, (0,) * (m - 2) + (1, 0)):
            assert dimension_up_to("D", m, positive_roots("D", m), half, 10**6) == 2**(m - 1)
        omega2 = (0, 1) + (0,) * (m - 2)
        assert dimension_up_to("C", m, positive_roots("C", m), omega2, 10**6) == (
            math.comb(2 * m, 2) - 1)
        assert dimension_up_to("D", m, positive_roots("D", m), omega2, 10**6) == math.comb(2 * m, 2)


def test_search_matches_oracle_on_every_classical_type_at_68():
    # Every A-D type the n = 68 scan reads, ranks 41-67 of A among them:
    # above the rank-40 closure checks of the closed-form coroots.
    types = [t for t in default_scan_types(68) if t.family in "ABCD"]
    assert len(types) == 163 and LieType("A", 67) in types
    wrong = [str(t) for t in types
             if {c.weight: c.dim for c in enumerate_restricted(t, 68)}
             != oracle_search(t.family, t.rank, 68)]
    assert wrong == []


def test_weyl_dimension_on_middle_columns_matches_oracle():
    # At n = 68 a type of rank >= 41 lists only 0, omega_1 and omega_m, so
    # the search check above never reads a coroot that meets only middle
    # columns.  omega_k and omega_k + omega_{k+1}, k = floor(m / 2), read them.
    ranks = {"A": (41, 96, 150, 217, 291), "B": (41, 88, 146), "C": (43, 100, 146),
             "D": (41, 93, 146)}
    wrong = []
    for family, ms in ranks.items():
        for m in ms:
            roots, datum = positive_roots(family, m), build_root_datum(LieType(family, m))
            k = m // 2
            for a in ((0,) * (k - 1) + (1,) + (0,) * (m - k),
                      (0,) * (k - 1) + (1, 1) + (0,) * (m - k - 1)):
                if weyl_dimension(datum, a) != dimension(family, m, roots, a):
                    wrong.append((f"{family}{m}", sum(a)))
    assert wrong == []
