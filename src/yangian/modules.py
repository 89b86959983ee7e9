"""Finite-dimensional modules with rational-function generating matrices.

A module stores the action of the generating series as an n x n array of
matrix polynomials P_ij(u) over one monic scalar denominator d(u):

    T_ij(u) acts by P_ij(u) / d(u),

with deg P_ii = deg d, leading coefficient the identity, and deg P_ij < deg d
off the diagonal.  The numerators form one integer array,
num[i, j, k, r, s] = scale * (u^k coefficient of P_ij)[r, s], over one
positive integer scale and kept in lowest terms.  A module stores that
array once, in the stored form of `linalg.stored_ints` (int64 below 2^53,
else Python ints), with its largest |entry| `top`.  Fock modules are
filled in int64 while a bound keeps every entry below 2^63, and tensor
products multiplied in int64 while `int_matmul`'s gate passes, so small
modules never make Python ints.  This normal form survives tensor
products (denominators multiply), parameter shifts and scalar twists, and
makes every verification in this package a statement about integer
coefficient arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

from .fock import (
    PLAIN,
    PRIME,
    TILDE,
    FockSpace,
    block_dim,
    first_variables_monomial,
    last_variables_monomial,
)
from .linalg import (Poly, RatFunc, RatMatrix, _lifted, _poly, int_matmul,
                     poly_gcd, rat, stored_ints)

# The largest n * dim of a module that fock_module or tensor_module builds:
# its n^2 numerator entries are dense dim x dim matrices.
MODULE_MAX_SIZE = 1024

T = TypeVar("T")


def _check_module_size(n: int, dim: int) -> None:
    if n * dim > MODULE_MAX_SIZE:
        raise ValueError(f"module of n * dim = {n * dim}, over the budget of "
                         f"{MODULE_MAX_SIZE}")


class YangianModule:
    """Exact finite-dimensional module in the P_ij(u) / d(u) normal form.

    The numerators have shape (n, n, deg d + 1, dim, dim); num / scale
    holds the u^k coefficients of the P_ij, so num[i, i, deg d] = scale I
    and num[i, j, deg d] = 0 for i != j.  The constructor takes int64 or
    Python-int numerators, divides them and scale by their gcd and keeps
    `num` in the stored form of `linalg.stored_ints`, with its largest
    |entry| `top`.  num is read-only: a module is a value, as RatMatrix.
    """

    def __init__(self, den: Poly, num: np.ndarray, scale: int = 1):
        if den.is_zero() or den.lead() != 1:
            raise ValueError("denominator must be monic")
        if num.ndim != 5 or num.shape[0] != num.shape[1] \
                or num.shape[3] != num.shape[4]:
            raise ValueError("need an (n, n, powers, dim, dim) coefficient array")
        if num.shape[2] != den.degree + 1:
            raise ValueError("need one coefficient per power of u up to deg d")
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        n, dim = num.shape[0], num.shape[3]
        # int64 numerators lead with scale, so one past int64 cannot match
        num = _lifted(num, scale)
        # the u^deg d coefficients as one (n dim)-square block matrix must be
        # scale I: n dim entries on the diagonal, each scale, and no other
        lead = num[:, :, -1].transpose(0, 2, 1, 3).reshape(n * dim, n * dim)
        if np.count_nonzero(lead) != n * dim \
                or not (lead.diagonal() == scale).all():
            raise ValueError("P_ij must lead with u^deg d I on the diagonal "
                             "and have a lower degree off it")
        # row by row: the gcd is almost always 1 after a few rows
        g = scale
        for row in np.ndindex(num.shape[:4]):
            if g == 1:
                break
            g = math.gcd(g, *num[row])
        if g > 1:
            num = num // g
        self.n = n
        self.dim = dim
        self.den = den
        self.scale = scale // g
        self.num, self.top = stored_ints(num)

    def entry_ratfunc(self, i: int, j: int, r: int, s: int) -> RatFunc:
        """The (r, s) matrix element of T_ij(u) as a reduced rational function."""
        return RatFunc(_poly(self.num[i, j, :, r, s].tolist(), self.scale),
                       self.den)

    def equal_entrywise(self, other: "YangianModule") -> bool:
        """Same action entrywise, denominators may differ."""
        if (self.n, self.dim) != (other.n, other.dim):
            return False
        _, (b, _), (c, _) = coefficient_pairs(self, other)
        return np.array_equal(b, c)


def _cleared(mod: YangianModule, cofactor: Poly, mult: int) -> np.ndarray:
    """mult times the numerators of P_ij(u) cofactor(u), for a monic
    cofactor, as integers: one convolution of the cofactor's numerators
    times mult along the power axis, whose entries are at most max|num|
    sum |mult c|."""
    cs = [mult * c for c in cofactor.num]
    num = _lifted(mod.num, mod.top * sum(map(abs, cs)))
    n, _, powers, dim, _ = num.shape
    out = np.zeros((n, n, powers + cofactor.degree, dim, dim), dtype=num.dtype)
    for t, c in enumerate(cs):
        if c:
            out[:, :, t:t + powers] += num * c
    return out


def coefficient_pairs(m1: YangianModule, m2: YangianModule) -> tuple[
        np.ndarray, tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """The coefficient pairs of the identity A . T1_ij(u) = T2_ij(u) . A.

    With T = P/d and g = gcd(d1, d2), the identity times d1 d2 / g is
    A . P1_ij (d2/g) = P2_ij (d1/g) . A, an equivalent identity of matrix
    polynomials since Q[u] has no zero divisors.  Returns (keys, (B,
    max|B|), (C, max|C|)): the (P, 3) row-major (i, j, k) with B or C
    nonzero, and the (P, d1, d1) and (P, d2, d2) stacks, stored as
    `stored_ints` stores them, of the u^k coefficients of the two sides'
    factors times one positive factor common to every pair, which changes
    no identity; A is a module map exactly when A B = C A for all.
    """
    if m1.n != m2.n:
        raise ValueError("rank mismatch")
    g = poly_gcd(m1.den, m2.den)
    f1, f2 = m2.den // g, m1.den // g
    sb, sc = m1.scale * f1.den, m2.scale * f2.den
    common = math.lcm(sb, sc)
    b, c = _cleared(m1, f1, common // sb), _cleared(m2, f2, common // sc)
    # both sides have deg d1 + deg d2 - deg g + 1 powers
    b, c = b.reshape(-1, m1.dim, m1.dim), c.reshape(-1, m2.dim, m2.dim)
    keep = (b != 0).any(axis=(1, 2)) | (c != 0).any(axis=(1, 2))
    return (np.argwhere(keep.reshape(m1.n, m1.n, -1)), stored_ints(b[keep]),
            stored_ints(c[keep]))


def trivial_module(n: int, dim: int = 1) -> YangianModule:
    num = np.zeros((n, n, 1, dim, dim), dtype=np.int64)
    num[range(n), range(n), 0] = np.eye(dim, dtype=np.int64)
    return YangianModule(Poly([1]), num)


def scalar_module(n: int, num: Poly, den: Poly) -> YangianModule:
    """One-dimensional module T_ij(u) = delta_ij num(u)/den(u), num/den -> 1."""
    if num.degree != den.degree or num.lead() != 1 or den.lead() != 1:
        raise ValueError("scalar action must be a ratio of monic polynomials of equal degree")
    arr = np.zeros((n, n, num.degree + 1, 1, 1), dtype=object)
    for i in range(n):
        arr[i, i, :, 0, 0] = num.num
    return YangianModule(den, arr, num.den)


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
    returns the trivial one-dimensional module.  The array is filled in
    int64 when a bound on its entries is below 2^63, else in Python ints.
    Raises ValueError when n * dim exceeds MODULE_MAX_SIZE, before any
    matrix is built.
    """
    if flavor not in (PLAIN, TILDE, PRIME):
        raise ValueError(f"unknown flavor {flavor!r}")
    if degree == 0:
        return trivial_module(n)
    _check_module_size(n, block_dim(theta, n, degree))
    z = rat(z)
    z_eff = z - 1 if flavor == PRIME else z
    den = Poly([theta * z_eff, 1])
    space = FockSpace(theta, n, (degree,))
    # scale = the denominator of z_eff: P_ij = K_ij + delta_ij (theta z_eff + u).
    # x_i d_j and x_j d_i multiply a monomial by one of its exponents and
    # d_i x_j by at most one more, so |K| <= degree + 1, and every |entry|,
    # scale included, is at most scale (degree + 1) + |theta z_eff numerator|
    scale, shift = z_eff.denominator, theta * z_eff.numerator
    ks = _lifted(np.array([space.gl_action_matrix(flavor, i, j)
                           for i in range(n) for j in range(n)]),
                 scale * (degree + 1) + abs(shift))
    eye = np.eye(space.dim, dtype=ks.dtype)
    num = np.zeros((n, n, 2, space.dim, space.dim), dtype=ks.dtype)
    num[:, :, 0] = ks.reshape(n, n, space.dim, space.dim) * scale
    for i in range(n):
        num[i, i, 0] += eye * shift
        num[i, i, 1] = eye * scale
    return YangianModule(den, num, scale)


def tensor_module(a: YangianModule, b: YangianModule) -> YangianModule:
    """Tensor product via the coproduct: P_ij = sum_l P_il (x) Q_lj, in the
    row-major Kronecker convention: per u-power k, to bound the temporaries,
    one `int_matmul` over (power s, l) against b's powers stacked
    Toeplitz-wise (Q_lj's u^(k - s) coefficient at row (s, l)).  A power's
    product of two int64 factors stays int64 while `int_matmul`'s float64
    gate passes; from the first power past it, or with a Python-int factor,
    the result holds Python ints.  Raises ValueError, before any product,
    when n * dim is over budget."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    n, dim = a.n, a.dim * b.dim
    _check_module_size(n, dim)
    an, bn = a.num, b.num
    ka, kb = an.shape[2], bn.shape[2]
    right = bn[:, :, ::-1].transpose(2, 0, 1, 3, 4).reshape(kb * n, -1)
    num = np.empty((n, n, ka + kb - 1, a.dim, b.dim, a.dim, b.dim), an.dtype)
    for k in range(ka + kb - 1):
        # the s with 0 <= k - s < kb; right holds b's k - s at kb - 1 - k + s
        lo, hi = max(0, k - kb + 1), min(ka, k + 1)
        left = an[:, :, lo:hi].transpose(0, 3, 4, 2, 1)
        prod = int_matmul(left.reshape(-1, (hi - lo) * n), right[
            (kb - 1 - k + lo) * n:(kb - 1 - k + hi) * n])
        if prod.dtype != num.dtype:
            # this power is past int_matmul's float64 gate: the result
            # holds Python ints from here on
            num = num.astype(object)
        num[:, :, k] = prod.reshape(n, a.dim, a.dim, n, b.dim, b.dim
                                    ).transpose(0, 3, 1, 4, 2, 5)
    return YangianModule(a.den * b.den, num.reshape(n, n, -1, dim, dim),
                         a.scale * b.scale)


def tensor_all(mods: Sequence[YangianModule]) -> YangianModule:
    if not mods:
        raise ValueError("empty tensor product")
    _check_module_size(mods[0].n, math.prod(m.dim for m in mods))
    out = mods[0]
    for m in mods[1:]:
        out = tensor_module(out, m)
    return out


def shift_module(mod: YangianModule, w) -> YangianModule:
    """Pull back through the shift automorphism: T_ij(u) -> T_ij(u - w).

    With w = a/b and D = deg d, b^D P(u - w) has the integer coefficients
    sum_k C(k, t) (-a)^(k-t) b^(D-k+t) P_k at u^t."""
    w = rat(w)
    a, b = w.numerator, w.denominator
    top = mod.den.degree
    mix = np.array([[math.comb(k, t) * (-a) ** (k - t) * b ** (top - k + t)
                     if k >= t else 0 for k in range(top + 1)]
                    for t in range(top + 1)], dtype=object)
    num = int_matmul(mix, mod.num.reshape(*mod.num.shape[:3], -1))
    return YangianModule(mod.den.shift(-w), num.reshape(mod.num.shape),
                         mod.scale * b ** top)


def twist_module(mod: YangianModule, g: RatFunc) -> YangianModule:
    """Multiply the action by a scalar series g(u) with g -> 1 at infinity:
    the tensor product with the one-dimensional module T_ij(u) = delta_ij g(u)."""
    if g.limit_at_infinity() != 1:
        raise ValueError("twist must tend to 1 at infinity")
    out = tensor_module(scalar_module(mod.n, g.num, g.den), mod)
    # cancel the common polynomial factor, if any, to keep degrees low
    common = out.den
    for i, j, r, s in np.ndindex(out.num.shape[:2] + out.num.shape[3:]):
        common = poly_gcd(common, _poly(out.num[i, j, :, r, s].tolist(), 1))
        if common.degree == 0:
            return out
    # the monic common factor is G / c, G its primitive numerators and c > 0
    # their lead, so out.num = scale P = scale (G / c) P' gives the new
    # numerators scale P' = c (out.num / G); G divides every entry in Z[u]
    # (Gauss's lemma), so the division is exact on the integers, one power
    # at a time, on Python ints
    rem = out.num.astype(object)
    m, powers, lead = common.degree, out.num.shape[2], common.num[-1]
    quo = np.zeros(out.num.shape[:2] + (powers - m,) + out.num.shape[3:],
                   dtype=object)
    for t in reversed(range(powers - m)):
        quo[:, :, t] = rem[:, :, t + m] // lead
        for e, c in enumerate(common.num[:-1]):
            rem[:, :, t + e] -= quo[:, :, t] * c
    return YangianModule(out.den // common, quo * lead, out.scale)


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


def check_pattern_size(params: ModuleParams,
                       factors: Sequence[PatternFactor]) -> None:
    """Raise the ValueError that pattern_module(params, factors) raises on a
    module over MODULE_MAX_SIZE, counting dimensions without building."""
    dims = [block_dim(params.theta, params.n, f.degree) for f in factors]
    for f, d in zip(factors, dims):
        if f.degree:
            _check_module_size(params.n, d)
    _check_module_size(params.n, math.prod(dims))


# The memo of the current run (see run_memo), or None outside one.
_RUN_MEMO: ContextVar[dict | None] = ContextVar("run_memo", default=None)


@contextmanager
def run_memo() -> Iterator[None]:
    """Within the block, `memoized` builds each result once: the block is
    one run, on one ModuleParams.  The memo is dropped at exit, so nothing
    outlives the block."""
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def memoized(key: Hashable, build: Callable[[], T]) -> T:
    """build(), kept under key inside `run_memo` and built once there; a
    build that raises keeps nothing.  The key names everything the result
    depends on beyond the run's ModuleParams."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def factor_module(params: ModuleParams, f: PatternFactor) -> YangianModule:
    """The Fock module of one pattern factor; per `run_memo`, built once."""
    return memoized(("factor", f.kind, f.param, f.degree),
                    partial(fock_module, params.theta, params.n, f.kind,
                            f.param, f.degree))


def pattern_module(params: ModuleParams, factors: Sequence[PatternFactor]) -> YangianModule:
    """The tensor product of the factors' Fock modules; per `run_memo`,
    each pattern and each factor's module is built once."""
    return memoized(("pattern", tuple(factors)), lambda: tensor_all([
        factor_module(params, f) for f in factors]))


def distinguished_vector(params: ModuleParams,
                         factors: Sequence[PatternFactor]) -> RatMatrix:
    """The column of the product of per-slot extreme monomials, with
    realization signs.

    A tilde slot carries the top-variable monomial, a plain slot the
    bottom-variable monomial.  Tilde slots are realized through variables
    that differ from the raw coordinates by -theta, contributing
    (-theta)^degree each, wherever the slot sits in the pattern.
    """
    theta, n = params.theta, params.n
    space = pattern_space(params, factors)
    exps = ()
    sign = 1
    for f in factors:
        if f.kind == PLAIN:
            exps += first_variables_monomial(theta, n, f.degree)
        else:
            exps += last_variables_monomial(theta, n, f.degree)
            if f.kind == TILDE:
                sign *= (-theta) ** f.degree
    return space.monomial_vector(exps, sign)
