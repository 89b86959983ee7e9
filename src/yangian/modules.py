"""Finite-dimensional modules with rational-function generating matrices.

A module stores the action of the generating series as an n x n array of
matrix polynomials P_ij(u) over one monic scalar denominator d(u):

    T_ij(u) acts by P_ij(u) / d(u),

with deg P_ii = deg d, leading coefficient the identity, and deg P_ij < deg d
off the diagonal.  This normal form survives tensor products (denominators
multiply), parameter shifts and scalar twists, and makes every verification
in this package a statement about polynomial matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .fock import (
    PLAIN,
    PRIME,
    TILDE,
    FockSpace,
    first_variables_monomial,
    last_variables_monomial,
)
from .linalg import MatPoly, Poly, RatFunc, RatMatrix, poly_gcd, rat

# The largest n * dim of a module that fock_module or tensor_module builds:
# its n^2 numerator entries are dense dim x dim matrices.
MODULE_MAX_SIZE = 1024


def _check_module_size(n: int, dim: int) -> None:
    if n * dim > MODULE_MAX_SIZE:
        raise ValueError(f"module of n * dim = {n * dim}, over the budget of "
                         f"{MODULE_MAX_SIZE}")


class YangianModule:
    """Exact finite-dimensional module in the P_ij(u) / d(u) normal form."""

    def __init__(self, n: int, den: Poly, num: Sequence[Sequence[MatPoly]]):
        if den.is_zero() or den.lead() != 1:
            raise ValueError("denominator must be monic")
        if len(num) != n or any(len(row) != n for row in num):
            raise ValueError("need an n x n array of matrix polynomials")
        dim = num[0][0].shape[0]
        for i in range(n):
            for j in range(n):
                if num[i][j].shape != (dim, dim):
                    raise ValueError("entry shape mismatch")
                if i == j:
                    if num[i][j].degree != den.degree or \
                            num[i][j].coeff(den.degree) != RatMatrix.identity(dim):
                        raise ValueError("diagonal entry must be monic of den degree")
                elif num[i][j].degree >= den.degree and not num[i][j].is_zero():
                    raise ValueError("off-diagonal entry degree too high")
        self.n = n
        self.dim = dim
        self.den = den
        self.num = [list(row) for row in num]

    def entry(self, i: int, j: int) -> MatPoly:
        return self.num[i][j]

    def entry_ratfunc(self, i: int, j: int, r: int, s: int) -> RatFunc:
        """The (r, s) matrix element of T_ij(u) as a reduced rational function."""
        return RatFunc(_entry_poly(self.num[i][j], r, s), self.den)

    def equal_entrywise(self, other: "YangianModule") -> bool:
        """Same action entrywise, denominators may differ."""
        if (self.n, self.dim) != (other.n, other.dim):
            return False
        return all(b == c for _, b, c in coefficient_pairs(self, other))


def coefficient_pairs(m1: YangianModule, m2: YangianModule
                      ) -> Iterator[tuple[tuple[int, int, int], RatMatrix, RatMatrix]]:
    """The coefficient pairs of the identity A . T1_ij(u) = T2_ij(u) . A.

    With T = P/d and g = gcd(d1, d2), the identity times d1 d2 / g is
    A . P1_ij (d2/g) = P2_ij (d1/g) . A, an equivalent identity of matrix
    polynomials since Q[u] has no zero divisors.  Yields ((i, j, k), B, C)
    for every i, j and every power k up to the larger degree, B and C the
    u^k coefficients of the two sides' factors; A is a module map exactly
    when A B = C A for all of them.  Equal denominators give cofactors 1.
    """
    if m1.n != m2.n:
        raise ValueError("rank mismatch")
    g = poly_gcd(m1.den, m2.den)
    c1, c2 = m2.den // g, m1.den // g
    for i in range(m1.n):
        for j in range(m1.n):
            p1 = m1.num[i][j] * c1 if c1.degree else m1.num[i][j]
            p2 = m2.num[i][j] * c2 if c2.degree else m2.num[i][j]
            for k in range(max(p1.degree, p2.degree) + 1):
                yield (i, j, k), p1.coeff(k), p2.coeff(k)


def trivial_module(n: int, dim: int = 1) -> YangianModule:
    eye = MatPoly.constant(RatMatrix.identity(dim))
    zero = MatPoly.zero((dim, dim))
    return YangianModule(n, Poly([1]),
                         [[eye if i == j else zero for j in range(n)] for i in range(n)])


def scalar_module(n: int, num: Poly, den: Poly) -> YangianModule:
    """One-dimensional module T_ij(u) = delta_ij num(u)/den(u), num/den -> 1."""
    if num.degree != den.degree or num.lead() != 1 or den.lead() != 1:
        raise ValueError("scalar action must be a ratio of monic polynomials of equal degree")
    entries = [[MatPoly((1, 1), [RatMatrix([[c]]) for c in num.coeffs]) if i == j
                else MatPoly.zero((1, 1)) for j in range(n)] for i in range(n)]
    return YangianModule(n, den, entries)


def omega_module(n: int, z) -> YangianModule:
    z = rat(z)
    return scalar_module(n, Poly([z + 1, 1]), Poly([z, 1]))


def omega_prime_module(n: int, z) -> YangianModule:
    z = rat(z)
    return scalar_module(n, Poly([z - 1, 1]), Poly([z, 1]))


def evaluation_module(n: int, z) -> YangianModule:
    """T_ij(u) = delta_ij + E_ij / (u + z) on column vectors of length n:
    the degree-1 plain component, x_i d_j on the variables."""
    return fock_module(1, n, PLAIN, z, 1)


def dual_evaluation_module(n: int, z) -> YangianModule:
    """T_ij(u) = delta_ij - E_ji / (u + z): the degree-1 prime component
    with parameter z + 1, -x_j d_i on the variables."""
    return fock_module(1, n, PRIME, rat(z) + 1, 1)


def fock_module(theta: int, n: int, flavor: str, z, degree: int) -> YangianModule:
    """The fixed-degree component of a one-block coordinate module.

    flavor 'plain' is delta_ij + x_i d_j/(u + theta z); 'tilde' is
    delta_ij - theta d_i x_j/(u + theta z); 'prime' is
    delta_ij - x_j d_i/(u + theta (z - 1)).  A degree-0 component of 'plain'
    or 'prime' is trivial by inspection; for uniformity degree 0 always
    returns the trivial one-dimensional module.  Raises ValueError when
    n * dim exceeds MODULE_MAX_SIZE, before any matrix is built.
    """
    if flavor not in (PLAIN, TILDE, PRIME):
        raise ValueError(f"unknown flavor {flavor!r}")
    if degree == 0:
        return trivial_module(n)
    _check_module_size(n, math.comb(n + degree - 1, degree) if theta == 1
                       else math.comb(n, degree))
    z = rat(z)
    z_eff = z - 1 if flavor == PRIME else z
    den = Poly([theta * z_eff, 1])
    space = FockSpace(theta, n, (degree,))
    dim = space.dim
    num = []
    for i in range(n):
        row = []
        for j in range(n):
            k = space.gl_action_matrix(flavor, i, j)
            if i == j:
                row.append(MatPoly((dim, dim),
                                   [k + RatMatrix.identity(dim) * (theta * z_eff),
                                    RatMatrix.identity(dim)]))
            else:
                row.append(MatPoly((dim, dim), [k]))
        num.append(row)
    return YangianModule(n, den, num)


def tensor_module(a: YangianModule, b: YangianModule) -> YangianModule:
    """Tensor product via the coproduct: P_ij = sum_k P_ik (x) Q_kj.
    Raises ValueError, before any product, when n * dim is over budget."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    n = a.n
    dim = a.dim * b.dim
    _check_module_size(n, dim)
    num = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = MatPoly.zero((dim, dim))
            for k in range(n):
                term = a.num[i][k].kron(b.num[k][j])
                if not term.is_zero():
                    acc = acc + term
            row.append(acc)
        num.append(row)
    return YangianModule(n, a.den * b.den, num)


def tensor_all(mods: Sequence[YangianModule]) -> YangianModule:
    if not mods:
        raise ValueError("empty tensor product")
    _check_module_size(mods[0].n, math.prod(m.dim for m in mods))
    out = mods[0]
    for m in mods[1:]:
        out = tensor_module(out, m)
    return out


def shift_module(mod: YangianModule, w) -> YangianModule:
    """Pull back through the shift automorphism: T_ij(u) -> T_ij(u - w)."""
    w = rat(w)
    den = mod.den.shift(-w)
    num = [[mod.num[i][j].shift(-w) for j in range(mod.n)] for i in range(mod.n)]
    return YangianModule(mod.n, den, num)


def twist_module(mod: YangianModule, g: RatFunc) -> YangianModule:
    """Multiply the action by a scalar series g(u) with g -> 1 at infinity:
    the tensor product with the one-dimensional module T_ij(u) = delta_ij g(u)."""
    if g.limit_at_infinity() != 1:
        raise ValueError("twist must tend to 1 at infinity")
    out = tensor_module(scalar_module(mod.n, g.num, g.den), mod)
    # cancel the common polynomial factor, if any, to keep degrees low
    common = out.den
    for row in out.num:
        for entry in row:
            for r in range(out.dim):
                for s in range(out.dim):
                    common = poly_gcd(common, _entry_poly(entry, r, s))
                    if common.degree == 0:
                        return out

    def divided(entry: MatPoly) -> MatPoly:
        polys = [[_entry_poly(entry, r, s) // common for s in range(out.dim)]
                 for r in range(out.dim)]
        deg = max(p.degree for row in polys for p in row)
        return MatPoly(entry.shape,
                       [RatMatrix([[p[k] for p in row] for row in polys])
                        for k in range(deg + 1)])

    return YangianModule(out.n, out.den // common,
                         [[divided(entry) for entry in row] for row in out.num])


def _entry_poly(entry: MatPoly, r: int, s: int) -> Poly:
    return Poly([entry.coeff(k)[r, s] for k in range(entry.degree + 1)])


# ---------------------------------------------------------------------------
# patterns: tensor products of fixed-degree components with book-kept data


@dataclass(frozen=True)
class PatternFactor:
    """One tensor slot: a flavor, a degree and an evaluation parameter.

    origin is the index of the slot in the unpermuted pattern the factor
    came from; it determines which degree/parameter pair the slot carries
    after permutations.
    """

    kind: str          # TILDE, PLAIN or PRIME
    degree: int
    param: Fraction    # z = mu_b + rho_b of the original slot b
    origin: int        # 0-based original slot


def resonant_pair(mu: Sequence[Fraction]) -> tuple[int, int] | None:
    """The first 0-based pair a < b with mu[a] - mu[b] an integer, if any."""
    for a in range(len(mu)):
        for b in range(a + 1, len(mu)):
            if (mu[a] - mu[b]).denominator == 1:
                return a, b
    return None


class ModuleParams:
    """Validated numeric data for a pattern of p tilde and q plain slots."""

    def __init__(self, theta: int, n: int, p: int, q: int, mu, nu,
                 allow_resonant: bool = False):
        if theta not in (1, -1):
            raise ValueError("theta must be +1 or -1")
        if p < 0 or q < 0 or p + q < 1:
            raise ValueError("need at least one slot")
        m = p + q
        mu = tuple(rat(x) for x in mu)
        nu = tuple(int(x) for x in nu)
        if len(mu) != m or len(nu) != m:
            raise ValueError("mu and nu must have length p + q")
        if any(x < 0 for x in nu):
            raise ValueError("degrees must be non-negative")
        if theta == -1 and any(x > n for x in nu):
            raise ValueError("anticommuting degrees cannot exceed n")
        pair = None if allow_resonant else resonant_pair(mu)
        if pair is not None:
            raise ValueError(
                f"mu[{pair[0]}] - mu[{pair[1]}] is an integer; pass "
                "allow_resonant=True to work with a resonant parameter set")
        self.theta, self.n, self.p, self.q = theta, n, p, q
        self.m = m
        self.mu, self.nu = mu, nu
        self.allow_resonant = allow_resonant

    @property
    def rho(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(-b) for b in range(self.m))

    @property
    def z(self) -> tuple[Fraction, ...]:
        return tuple(self.mu[b] + self.rho[b] for b in range(self.m))

    @property
    def delta_prime(self) -> tuple[int, ...]:
        return tuple(1 if b < self.p else -1 for b in range(self.m))

    @property
    def lam(self) -> tuple[Fraction, ...]:
        half = Fraction(self.theta * self.n, 2)
        return tuple(self.mu[b] - half - self.nu[b] if b < self.p
                     else self.mu[b] + half + self.nu[b] for b in range(self.m))

    @property
    def mu_star(self) -> tuple[Fraction, ...]:
        half = Fraction(self.n, 2)
        dp = self.delta_prime
        return tuple(self.mu[b] + self.rho[b] - self.theta * half * dp[b]
                     for b in range(self.m))

    @property
    def lam_star(self) -> tuple[Fraction, ...]:
        half = Fraction(self.n, 2)
        dp = self.delta_prime
        lam = self.lam
        return tuple(lam[b] + self.rho[b] + half * dp[b] for b in range(self.m))

    @property
    def nu_prime(self) -> tuple[int, ...]:
        if self.theta != -1:
            raise ValueError("nu_prime is defined for theta = -1 only")
        return tuple(self.n - self.nu[b] if b < self.p else self.nu[b]
                     for b in range(self.m))


def source_pattern(params: ModuleParams) -> list[PatternFactor]:
    z = params.z
    return [PatternFactor(TILDE if b < params.p else PLAIN,
                          params.nu[b], z[b], b) for b in range(params.m)]


def permute_pattern(factors: Sequence[PatternFactor], perm: Sequence[int]) -> list[PatternFactor]:
    """Slot a of the result carries the factor from slot perm^{-1}(a)."""
    m = len(factors)
    if sorted(perm) != list(range(m)):
        raise ValueError("not a permutation")
    inv = [0] * m
    for b, a in enumerate(perm):
        inv[a] = b
    return [factors[inv[a]] for a in range(m)]


def prime_form(factors: Sequence[PatternFactor]) -> list[PatternFactor]:
    """Replace every tilde slot by its prime companion.

    The prime module carries the same action as the tilde one up to a
    scalar-matrix factor, so this is the rational form of the pattern with
    those scalar factors stripped.
    """
    return [PatternFactor(PRIME, f.degree, f.param, f.origin)
            if f.kind == TILDE else f for f in factors]


def pattern_space(params: ModuleParams, factors: Sequence[PatternFactor]) -> FockSpace:
    return FockSpace(params.theta, params.n, tuple(f.degree for f in factors))


def pattern_module(params: ModuleParams, factors: Sequence[PatternFactor]) -> YangianModule:
    mods = [fock_module(params.theta, params.n, f.kind, f.param, f.degree)
            for f in factors]
    return tensor_all(mods)


def distinguished_vector(params: ModuleParams,
                         factors: Sequence[PatternFactor]) -> list[Fraction]:
    """The product of per-slot extreme monomials, with realization signs.

    A tilde slot carries the top-variable monomial, a plain slot the
    bottom-variable monomial.  Tilde slots are realized through variables
    that differ from the raw coordinates by -theta, contributing
    (-theta)^degree each, wherever the slot sits in the pattern.
    """
    theta, n = params.theta, params.n
    space = pattern_space(params, factors)
    exps = ()
    sign = Fraction(1)
    for f in factors:
        if f.kind == PLAIN:
            exps += first_variables_monomial(theta, n, f.degree)
        else:
            exps += last_variables_monomial(theta, n, f.degree)
            if f.kind == TILDE:
                sign *= Fraction(-theta) ** f.degree
    return space.monomial_vector(exps, sign)
