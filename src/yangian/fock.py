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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import RatMatrix

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
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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

    def var(self, block: int, i: int) -> int:
        """Flat variable index of x_{block,i} (both 0-based)."""
        return block * self.n + i

    def mul_var(self, b: tuple, v: int):
        """Left-multiply basis exponent b by variable v: (coeff, new b) or None."""
        if self.theta == -1:
            if b[v]:
                return None
            sign = -1 if sum(b[:v]) % 2 else 1
            return sign, b[:v] + (1,) + b[v + 1:]
        return 1, b[:v] + (b[v] + 1,) + b[v + 1:]

    def deriv_var(self, b: tuple, v: int):
        """Apply the left derivation in variable v: (coeff, new b) or None."""
        e = b[v]
        if e == 0:
            return None
        if self.theta == -1:
            sign = -1 if sum(b[:v]) % 2 else 1
            return sign, b[:v] + (0,) + b[v + 1:]
        return e, b[:v] + (e - 1,) + b[v + 1:]

    def apply_atoms(self, atoms, b: tuple):
        """Apply a word of ('x'|'d', var) atoms, rightmost first.

        Returns (coeff, basis tuple) or None if the word annihilates b.
        """
        coeff = 1
        for kind, v in reversed(atoms):
            step = self.mul_var(b, v) if kind == "x" else self.deriv_var(b, v)
            if step is None:
                return None
            c, b = step
            coeff *= c
        return coeff, b

    def flavor_atoms(self, flavor: str, block: int, i: int, j: int):
        """The quadratic operator entry (i, j) for a one-block action flavor.

        Returns (scalar, atom word); the word preserves the block degree.
        """
        vi, vj = self.var(block, i), self.var(block, j)
        if flavor == PLAIN:
            return 1, (("x", vi), ("d", vj))
        if flavor == TILDE:
            return -self.theta, (("d", vi), ("x", vj))
        if flavor == PRIME:
            return -1, (("x", vj), ("d", vi))
        raise ValueError(f"unknown flavor {flavor!r}")

    def operator_matrix(self, terms) -> RatMatrix:
        """Dense matrix of sum(scalar * atom-word) over the basis."""
        cols = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for scalar, atoms in terms:
            for k, b in enumerate(self.basis):
                hit = self.apply_atoms(atoms, b)
                if hit is None:
                    continue
                c, nb = hit
                cols[k][self.index[nb]] += Fraction(scalar) * c
        return RatMatrix([[cols[k][r] for k in range(self.dim)] for r in range(self.dim)])

    def gl_action_matrix(self, flavor: str, i: int, j: int, block: int = 0) -> RatMatrix:
        """Matrix of the (i, j) coefficient operator of a one-block flavor."""
        scalar, atoms = self.flavor_atoms(flavor, block, i, j)
        return self.operator_matrix([(scalar, atoms)])

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
