"""Per-entry reference forms shared by the test modules.

Modules store one integer coefficient array; these helpers read it back as
`RatMatrix` coefficients and `MatPoly` entries, the slow forms the tests
compare the array code against.
"""

from fractions import Fraction

from yangian.linalg import MatPoly, RatMatrix


def coefficient(mod, i, j, k):
    """The u^k coefficient of P_ij(u) as a RatMatrix."""
    return RatMatrix([[Fraction(int(x), mod.scale) for x in row]
                      for row in mod.num[i, j, k]])


def entry_matpoly(mod, i, j):
    """P_ij(u) as a MatPoly, read off the coefficient array."""
    return MatPoly((mod.dim, mod.dim), [coefficient(mod, i, j, k)
                                        for k in range(mod.num.shape[2])])


def column(values):
    """The one-column RatMatrix of a list of rationals."""
    return RatMatrix([[x] for x in values])
