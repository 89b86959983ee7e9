"""Multiparticle coordinate spaces and the quadratic gl_n operators on them.

Two symmetry types share one interface, selected by theta:

- theta = +1: commuting variables, a block of degree d has the monomials of
  total degree d in n variables;
- theta = -1: anticommuting variables, a block of degree d has the wedge
  monomials on d of the n variables, written in ascending index order.

A space carries m blocks with fixed degrees (d_1, ..., d_m); its basis is the
product of per-block bases with block 1 slowest, which matches the row-major
Kronecker convention used for tensor products of modules.  Derivatives are
left derivations, so for theta = -1 the relation is d_i x_j + x_j d_i = d_ij
and a derivative acting at position k in a wedge word picks up (-1)^(k-1).
`apply_word` is the one action of these atoms on monomials: the module
matrices here and the operator realization in `hd` both go through it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .linalg import RatMatrix, _ratmatrix

# flavors of one-block module actions: entry (i, j) of the degree-preserving
# coefficient operator, with theta folded in so that the time-line action is
# always delta_ij + K_ij / (u + theta * z_eff)
PLAIN = "plain"   # K_ij = x_i d_j,            z_eff = z
TILDE = "tilde"   # K_ij = -theta d_i x_j,     z_eff = z
PRIME = "prime"   # K_ij = -x_j d_i,           z_eff = z - 1


def block_basis(theta: int, n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one block, in a fixed deterministic order."""
    assert theta in (1, -1)
    assert degree >= 0
    if theta == -1:
        if degree > n:
            raise ValueError(f"degree {degree} exceeds {n} anticommuting variables")
        out = []
        for subset in itertools.combinations(range(n), degree):
            e = [0] * n
            for v in subset:
                e[v] = 1
            out.append(tuple(e))
        return out
    # commuting: all compositions of `degree` into n parts, highest variable
    # powers first
    return sorted(_compositions(degree, n), reverse=True)


def _compositions(total: int, parts: int):
    """Every tuple of `parts` non-negative integers summing to `total`: the
    part counts of each multiset of `total` picks from `parts` places."""
    for picks in itertools.combinations_with_replacement(range(parts), total):
        exps = [0] * parts
        for v in picks:
            exps[v] += 1
        yield tuple(exps)


def apply_word(theta: int, n: int, word, exps: tuple):
    """Apply a word of (kind, block a, coordinate i) atoms, rightmost first.

    kind "x" multiplies by x_{ai} and kind "d" applies the left derivation
    d_{ai}; exps holds the exponents of all variables, block by block, so
    x_{ai} sits at position a * n + i.  Returns (coefficient, exponents),
    or None if the word annihilates the monomial.
    """
    coeff = 1
    for kind, a, i in reversed(word):
        v = a * n + i
        e = exps[v]
        if theta == 1:
            if kind == "x":
                exps = exps[:v] + (e + 1,) + exps[v + 1:]
            elif e:
                coeff *= e
                exps = exps[:v] + (e - 1,) + exps[v + 1:]
            else:
                return None
        else:
            # x on an occupied or d on an empty variable gives 0
            if (kind == "x") == (e == 1):
                return None
            if sum(exps[:v]) & 1:
                coeff = -coeff
            exps = exps[:v] + (1 - e,) + exps[v + 1:]
    return coeff, exps


class FockSpace:
    """Fixed block degrees inside the m-block coordinate algebra."""

    def __init__(self, theta: int, n: int, degrees):
        assert theta in (1, -1)
        self.theta = theta
        self.n = n
        self.degrees = tuple(degrees)
        self.m = len(self.degrees)
        blocks = [block_basis(theta, n, d) for d in self.degrees]
        self.basis = [sum(combo, ()) for combo in itertools.product(*blocks)]
        self.index = {b: k for k, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def operator_matrix(self, terms) -> RatMatrix:
        """Matrix of sum(scalar * word) over the basis, for integer scalars
        and degree-preserving words."""
        out = np.zeros((self.dim, self.dim), dtype=object)
        for scalar, word in terms:
            for k, b in enumerate(self.basis):
                hit = apply_word(self.theta, self.n, word, b)
                if hit is not None:
                    out[self.index[hit[1]], k] += scalar * hit[0]
        return _ratmatrix(out, 1)

    def gl_action_matrix(self, flavor: str, i: int, j: int) -> RatMatrix:
        """Matrix of the (i, j) coefficient operator of a one-block flavor."""
        if flavor == PLAIN:
            term = (1, (("x", 0, i), ("d", 0, j)))
        elif flavor == TILDE:
            term = (-self.theta, (("d", 0, i), ("x", 0, j)))
        elif flavor == PRIME:
            term = (-1, (("x", 0, j), ("d", 0, i)))
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
        return self.operator_matrix([term])

    def monomial_vector(self, exps: tuple, coeff=1) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        v[self.index[tuple(exps)]] = Fraction(coeff)
        return v


def first_variables_monomial(theta: int, n: int, degree: int) -> tuple[int, ...]:
    """Exponents of x_1^d (commuting) or x_1 ^ ... ^ x_d (anticommuting)."""
    e = [0] * n
    if theta == -1:
        for v in range(degree):
            e[v] = 1
    else:
        e[0] = degree
    return tuple(e)


def last_variables_monomial(theta: int, n: int, degree: int) -> tuple[int, ...]:
    """Exponents of x_n^d (commuting) or x_{n-d+1} ^ ... ^ x_n (anticommuting)."""
    e = [0] * n
    if theta == -1:
        for v in range(n - degree, n):
            e[v] = 1
    else:
        e[-1] = degree
    return tuple(e)
