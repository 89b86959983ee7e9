"""Exact rational arithmetic: polynomials, rational functions, dense matrices.

Nothing in this module ever rounds.  A polynomial is a tuple of Python-int
numerators over one positive denominator and a matrix one array of
Python-int numerators over one positive denominator, both in lowest terms,
so equal values have equal fields; all their arithmetic runs on the
integers.  Polynomial division is integer pseudo-division, and the gcds
that keep rational functions in lowest terms are primitive
pseudo-remainder sequences.  `poly_rational_roots` lifts the roots of the
square-free part of the numerators from one small prime by Newton's step
and verifies every candidate exactly, so it factors no integer and its
work is polynomial in the degree and the coefficient sizes.  Every
`RatMatrix` product goes through `int_matmul`, the package's one integer
product kernel, and `rref`, `rank`, `nullspace`, `solve` and `inverse` all
read one certified modular elimination, `_modular_rref`: the matrix is
reduced in int64 modulo primes below 2^31, the echelon form is rebuilt from
as few primes as the answer needs by CRT and rational reconstruction, and
it is accepted only when an exact check (one `int_matmul` and the echelon
shape) proves it the canonical one.  A vector is a one-column `RatMatrix`
and a basis one column per vector; single coefficients and entries are read
back as Fractions.  `int_matmul` returns int64 for two int64 operands
under its gate, so int64 values stay int64 through it, and Python ints
otherwise.  `ZeroTest` tells the fused checks of `intertwine`, `hd` and
`verify` which entries of a signed sum of integer matrix products are
nonzero, from float64 products in one piece, in two limbs or modulo the
`residue_primes`.  Whether integers are exact in float64 is decided here
alone, by one limit, `FLOAT64_EXACT_LIMIT`, and one cast, `_as_float64`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial with rational coefficients.

    Stored as `RatMatrix` stores a matrix: `num` is a tuple of Python-int
    numerators, low degree first, over one positive int `den`, in lowest
    terms (no trailing zero numerator, and no prime divides den and every
    numerator), so equal polynomials have equal fields.  The zero
    polynomial is () over 1, of degree -1.  All arithmetic runs on the
    integers; `coeffs` reads the coefficients back as Fractions.  Immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        object.__setattr__(self, "num", p.num)
        object.__setattr__(self, "den", p.den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @staticmethod
    def const(c) -> "Poly":
        c = _rational(c)
        return _poly([c.numerator], c.denominator)

    @staticmethod
    def x(power: int = 1) -> "Poly":
        return _poly([0] * power + [1], 1)

    @staticmethod
    def from_roots(roots: Iterable) -> "Poly":
        """The product of u - r over the roots, as the product of the
        integer linear factors b u - a over b, for r = a / b."""
        num, den = [1], 1
        for r in roots:
            r = _rational(r)
            a, b = r.numerator, r.denominator
            num = ([-a * num[0]]
                   + [b * num[k - 1] - a * num[k] for k in range(1, len(num))]
                   + [b * num[-1]])
            den *= b
        return _poly(num, den)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == 1

    def lead(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // other.den) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, x in enumerate(b):
            out[k] += x
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _rational(other)
            return _poly([x * c.numerator for x in self.num],
                         self.den * c.denominator)
        if not self.num or not other.num:
            return _poly((), 1)
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, u) -> Fraction:
        """The value at a rational u = a / b: the sum of num[k] a^k b^(d-k)
        over den b^d, by Horner's rule on the integers."""
        u = _rational(u)
        a, b = u.numerator, u.denominator
        acc = 0
        for k, c in enumerate(reversed(self.num)):
            acc = acc * a + c * b ** k
        return Fraction(acc, self.den * b ** max(self.degree, 0))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder, by integer pseudo-division of the
        numerators: s num = quo other.num + rem gives self = (quo other.den
        / (s den)) other + rem / (s den)."""
        if not other.num:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem, s = _pseudo_divmod(self.num, other.num)
        den = s * self.den
        if other.den != 1:
            quo = [q * other.den for q in quo]
        return _poly(quo, den), _poly(rem, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if not self.num:
            return self
        return _poly(self.num, self.num[-1])

    def shift(self, c) -> "Poly":
        """Return p(u + c).  For c = a / b and degree d, b^d p(u + c) is the
        sum of num[k] (b u + a)^k b^(d-k), an integer polynomial that
        Horner's rule in b u + a builds."""
        c = _rational(c)
        a, b = c.numerator, c.denominator
        out: list[int] = []
        for k, x in enumerate(reversed(self.num)):
            # out <- out (b u + a) + x b^k
            step = [a * y for y in out] + [0]
            for t, y in enumerate(out):
                step[t + 1] += b * y
            step[0] += x * b ** k
            out = step
        return _poly(out, self.den * b ** max(self.degree, 0))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _rational(x) -> int | Fraction:
    """An int or Fraction as it is; anything else through Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _poly(num: Sequence[int], den: int) -> Poly:
    """The polynomial with integer numerators num, low degree first, over
    den != 0, in lowest terms."""
    k = len(num)
    while k and not num[k - 1]:
        k -= 1
    if not k:
        num, den = (), 1
    else:
        num = tuple(num[:k])
        if den < 0:
            num, den = tuple(-c for c in num), -den
        if den != 1:
            g = math.gcd(den, *num)
            if g > 1:
                num, den = tuple(c // g for c in num), den // g
    out = object.__new__(Poly)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]
                   ) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (quo, rem, s) with s a = quo b + rem, s > 0
    and deg rem < deg b, for integer coefficient sequences a and b != 0,
    low degree first (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).

    Each step multiplies through by |lead b| / gcd(top, lead b) only, so s
    is 1 whenever every step divides exactly, as when b divides a in Z[u];
    s > 0 keeps rem a positive multiple of the remainder over Q.
    """
    n, lead = len(b) - 1, b[-1]
    low = b[:-1]
    rem = list(a)
    quo = [0] * max(len(a) - n, 0)
    s = 1
    for k in reversed(range(len(quo))):
        top = rem.pop()
        if not top:
            continue
        g = math.gcd(top, lead)
        mult = abs(lead) // g
        if mult != 1:
            rem = [x * mult for x in rem]
            quo = [x * mult for x in quo]
            s *= mult
        q = quo[k] = top // g if lead > 0 else -(top // g)
        for i, x in enumerate(low):
            rem[k + i] -= q * x
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem, s


def _primitive(ints: Sequence[int]) -> list[int]:
    """The integer coefficients divided by their positive gcd."""
    g = math.gcd(*ints)
    return list(ints) if g == 1 else [c // g for c in ints]


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A primitive gcd, unique up to sign, of two nonzero integer
    polynomials, by the primitive pseudo-remainder sequence (Knuth, TAOCP
    vol. 2, 4.6.1; Collins 1967): each step replaces (a, b) by b and the
    primitive part of the pseudo-remainder of a by b, which keeps the gcd
    over Q and stops the coefficient growth of plain pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _pseudo_divmod(a, b)[1]
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return [1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, by the primitive pseudo-remainder sequence of the
    numerators; the gcd of two zero polynomials is zero."""
    if not a.num or not b.num:
        return (a if a.num else b).monic()
    g = _primitive_gcd(a.num, b.num)
    return _poly(g, g[-1])


def format_poly(p: Poly, var: str = "u") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in reversed(range(len(p.coeffs))):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
            if c < 0:
                term = "-" + term
        if parts and not term.startswith("-"):
            parts.append("+")
        elif term.startswith("-"):
            parts.append("-")
            term = term[1:]
        parts.append(term)
    return " ".join(parts)


def poly_rational_roots(p: Poly) -> tuple[list[Fraction], Poly]:
    """All rational roots of p with multiplicity, plus the exact cofactor.

    Roots are returned sorted ascending; the cofactor is p divided by
    (u - r) once per returned root, so it has no rational root.  Nothing is
    factored.  With the roots at 0 stripped, the square-free part of p's
    numerators is a primitive integer polynomial f of degree d with leading
    coefficient L.  A rational root of f in lowest terms has a denominator
    dividing L, so y = |L| r is an integer root of the monic integer
    polynomial g(y) = sgn(L) |L|^(d-1) f(y / |L|).  Its integer roots are
    found by p-adic lifting (Loos 1983).  Take the least prime q modulo
    which every root of g is simple (g'(y) != 0 mod q), found by evaluating
    g at 0, ..., q - 1.  Every integer root of g reduces to one of those
    roots, and Newton's step y - g(y) / g'(y) lifts each uniquely from
    modulo q^e to modulo q^(2e).  An integer root has |y| <= 1 + max |g_i|
    (Cauchy), so once the modulus passes twice that bound the symmetric
    residue is the root itself, and it is kept when g(y) = 0.  Each
    r = y / |L| is then checked on p itself and divided out while it is a
    root, which gives its multiplicity.

    The work is polynomial in the degree and the coefficient sizes.  g is
    square-free, so its discriminant is a nonzero integer, and every prime
    that fails divides it: at most log2 |disc g| primes are tried, and
    `_is_prime` is exact far beyond any q reached.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    k = next(i for i, c in enumerate(p.num) if c)
    roots = [Fraction(0)] * k
    q = _poly(p.num[k:], p.den)
    if q.degree < 1:
        return roots, q
    ints = _primitive(q.num)
    # the gcd is primitive, so the quotient is exact and primitive (Gauss's
    # lemma)
    f = _pseudo_divmod(ints, _primitive_gcd(ints, _derivative(ints)))[0]
    d, lead = len(f) - 1, abs(f[-1])
    sign = 1 if f[-1] > 0 else -1
    g = [sign * c * lead ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dg = _derivative(g)
    prime = 1
    while True:
        prime += 1
        if _is_prime(prime):
            low = [c % prime for c in g]
            starts = [y for y in range(prime) if not _int_eval(low, y) % prime]
            if all(_int_eval(dg, y) % prime for y in starts):
                break
    bound = 2 * (1 + max(map(abs, g)))
    for y in starts:
        m = prime
        while m <= bound:
            m *= m
            y = (y - _int_eval(g, y) * pow(_int_eval(dg, y), -1, m)) % m
        if 2 * y > m:
            y -= m
        if _int_eval(g, y) == 0:
            r = Fraction(y, lead)
            while q.degree >= 1 and q(r) == 0:
                roots.append(r)
                q = q // Poly.from_roots([r])
    return sorted(roots), q


def _derivative(ints: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(ints)][1:]


def _int_eval(coeffs: list[int], y: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Quotient of two Polys, kept in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        n, d = ratfunc_normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other if isinstance(other, Poly) else Poly.const(other))
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _as_ratfunc(other) / self

    def __call__(self, u) -> Fraction:
        d = self.den(u)
        if d == 0:
            raise ZeroDivisionError(f"pole at u={u}")
        return self.num(u) / d

    def limit_at_infinity(self) -> Fraction | None:
        """Value at u -> oo, or None if unbounded."""
        if self.num.degree > self.den.degree:
            return None
        if self.num.degree < self.den.degree:
            return Fraction(0)
        return self.num.lead() / self.den.lead()

    def __repr__(self) -> str:
        if self.den.is_one():
            return f"RatFunc({format_poly(self.num)})"
        return f"RatFunc(({format_poly(self.num)}) / ({format_poly(self.den)}))"


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """The rational function num / den, for coprime num and monic den."""
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    return RatFunc(Poly.const(rat(x)))


def ratfunc_normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Lowest terms with monic denominator; zero is 0/1.

    The common factor is the primitive gcd of the two numerator tuples,
    divided out of both exactly on the integers; a constant side has none.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _poly((), 1), _poly([1], 1)
    a, b = num.num, den.num
    if len(a) > 1 and len(b) > 1:
        g = _primitive_gcd(a, b)
        if len(g) > 1:
            a, b = _pseudo_divmod(a, g)[0], _pseudo_divmod(b, g)[0]
    # (a / num.den) / (b / den.den), over the lead of b
    return _poly([x * den.den for x in a], num.den * b[-1]), _poly(b, b[-1])


# ---------------------------------------------------------------------------
# dense matrices


class RatMatrix:
    """Dense exact rational matrix: integer numerators over one denominator.

    `data` is a 2-d numpy object array of Python ints and `den` a positive
    int; the matrix is data / den, kept in lowest terms (no prime divides
    den and every numerator, and the zero matrix has den 1), so equal
    matrices have equal fields.  Entries are read back as Fractions.
    Treated as a value: public operations never mutate in place.
    """

    __slots__ = ("data", "den")

    def __init__(self, rows):
        rows = [[rat(x) for x in r] for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        den = math.lcm(*(x.denominator for r in rows for x in r))
        data = np.array([[x.numerator * (den // x.denominator) for x in r]
                         for r in rows], dtype=object).reshape(len(rows), width)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable; build a new one")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return _ratmatrix(np.eye(n, dtype=np.int64).astype(object), 1)

    @staticmethod
    def zeros(r: int, c: int) -> "RatMatrix":
        return _ratmatrix(np.zeros((r, c), dtype=object), 1)

    @staticmethod
    def stack(blocks: Sequence[Sequence["RatMatrix"]]) -> "RatMatrix":
        """The block matrix with these rows of blocks, as `np.block`."""
        den = math.lcm(*(b.den for row in blocks for b in row))
        return _ratmatrix(np.block([[b.data * (den // b.den) for b in row]
                                    for row in blocks]), den)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, ij):
        """An entry as a Fraction; with slices or index lists, a submatrix."""
        x = self.data[ij]
        if not isinstance(x, np.ndarray):
            return Fraction(x, self.den)
        if x.ndim != 2:
            raise IndexError("a submatrix needs a row and a column index")
        return _ratmatrix(x, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and bool((self.data == other.data).all()))

    def is_zero(self) -> bool:
        return not self.data.any()

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        den = math.lcm(self.den, other.den)
        return _ratmatrix(self.data * (den // self.den)
                          + other.data * (den // other.den), den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return _ratmatrix(-self.data, self.den)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
            return _ratmatrix(int_matmul(self.data, other.data),
                              self.den * other.den)
        c = rat(other)
        return _ratmatrix(self.data * c.numerator, self.den * c.denominator)

    def __rmul__(self, other):
        return self * other

    def transpose(self) -> "RatMatrix":
        return _ratmatrix(self.data.T, self.den)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """The Kronecker product.  No code in the package calls it (a swap
        letter acts on its two slots in `intertwine.compose_word`); the
        tests' references, directly and through `MatPoly.kron`, and the
        per-layer tracer in perfbench/tracer.py, which wraps it by name,
        keep it."""
        a, b = self.data, other.data
        (r1, c1), (r2, c2) = a.shape, b.shape
        # out[i r2 + k, j c2 + l] = a[i, j] b[k, l], as one broadcast product
        out = (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)
        return _ratmatrix(out, self.den * other.den)

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        red, pivots, d = _modular_rref(self.data)
        full = np.zeros(self.shape, dtype=object)
        full[:len(pivots)] = red
        return _ratmatrix(full, d), pivots

    def rank(self) -> int:
        return len(_modular_rref(self.data)[1])

    def nullspace(self) -> "RatMatrix":
        return nullspace(self)

    def solve(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """One exact solution column x of A x = rhs, for a column rhs, or
        None if the system is inconsistent: the rref of [A | rhs] read at
        its pivots.

        No caller in the package; kept because the per-layer tracer in
        perfbench/tracer.py wraps it by name.
        """
        if rhs.shape != (self.nrows, 1):
            raise ValueError("rhs must be one column with a row per matrix row")
        cols = self.ncols
        red, pivots = RatMatrix.stack([[self, rhs]]).rref()
        if cols in pivots:
            return None
        x = np.zeros((cols, 1), dtype=object)
        x[pivots, 0] = red.data[:len(pivots), cols]
        return _ratmatrix(x, red.den)

    def inverse(self) -> "RatMatrix":
        """The inverse of a square nonsingular matrix: the right block of
        the rref of [A | I].

        No caller in the package; kept because the per-layer tracer in
        perfbench/tracer.py wraps it by name.
        """
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        red, pivots = RatMatrix.stack([[self, RatMatrix.identity(n)]]).rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return red[:, n:]

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"


def _ratmatrix(data: np.ndarray, den: int) -> RatMatrix:
    """The matrix data / den (integer data, den != 0), in lowest terms."""
    if den < 0:
        data, den = -data, -den
    if den != 1:
        g = math.gcd(den, *data.flat)
        if g > 1:
            data, den = data // g, den // g
    out = object.__new__(RatMatrix)
    object.__setattr__(out, "data", data)
    object.__setattr__(out, "den", den)
    return out


def nullspace(mat: RatMatrix) -> RatMatrix:
    """Canonical basis of the right nullspace, one column per vector.

    One column per free column of the reduced row echelon form, in column
    order, with an identity block on the free columns; the basis is unique,
    so the output is deterministic.
    """
    return _nullspace_from_rref(*_modular_rref(mat.data), mat.ncols)


def _nullspace_from_rref(red: np.ndarray, pivots: list[int], d: int,
                         ncols: int) -> RatMatrix:
    """The canonical nullspace basis read off an echelon form: red / d is
    the reduced row echelon form of a matrix with ncols columns, its first
    len(pivots) rows nonzero; -red at the pivot rows, d at the free ones."""
    free = sorted(set(range(ncols)) - set(pivots))
    basis = np.zeros((ncols, len(free)), dtype=object)
    basis[free, range(len(free))] = d
    basis[pivots] = -red[:len(pivots), free]
    return _ratmatrix(basis, d)


def _modular_rref(ints: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """The reduced row echelon form of an integer matrix A, certified.

    Returns (R, P, d): R / d is the nonzero part of rref(A), in lowest
    terms, and P its pivot columns.  A is eliminated modulo word-size
    primes (`_rref_mod`).  Only the primes of the best key are kept: the
    highest rank, then the earliest pivot set, since modulo a prime that
    divides a minor the rank drops or the pivots move right, never the
    other way.  The block X = R[:, F] on the free columns F is combined
    over the kept primes by CRT and rebuilt by rational reconstruction
    (`_reconstruct`); until both succeed and X passes the certificate,
    another prime is added.  The certificate is exact:

    - A N = 0 for N, d I at F and -X at P, by one `int_matmul`: with R
      the identity at P this is A[:, P] X = d A[:, F], or A = A[:, P] R;
    - X[i, j] = 0 where F[j] < P[i]: R is in reduced echelon form, and
      column f of N is nonzero only at f and at pivot columns below f.

    The columns of N are then len(F) independent vectors of ker A, so
    rank A <= len(P), and the rank modulo a prime never exceeds the rank
    over Q, so rank A = len(P).  By the second condition every free
    column is a combination of earlier columns, so F is the true free
    set, and N and R are the unique canonical nullspace basis and rref.
    Only primes that divide a nonzero minor are unlucky, and Hadamard's
    bound caps both their number and the primes reconstruction needs, so
    the loop ends.
    """
    cols = ints.shape[1]
    # below 2^53 the float64 cast is exact, and its int64 copy spares the
    # residues and the certificate's product a pass over Python ints
    cast = _as_float64(ints)
    if cast is not None and np.abs(cast).max(initial=0) < FLOAT64_EXACT_LIMIT:
        ints = cast.astype(np.int64)
    best = None
    for p in _elimination_primes():
        red, pivots = _rref_mod(_residues(ints, p), p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus = key, p
            free = sorted(set(range(cols)) - set(pivots))
            x = red[:, free]
        elif key == best:
            x = _crt(x, modulus, red[:, free], p)
            modulus *= p
        else:
            continue
        got = _reconstruct(x, modulus)
        if got is None:
            continue
        num, d = got
        if num[np.greater.outer(pivots, free)].any():
            continue
        null = np.zeros((cols, len(free)), dtype=object)
        null[pivots] = -num
        null[free, range(len(free))] = d
        if int_matmul(ints, null).any():
            continue
        out = np.zeros((len(pivots), cols), dtype=object)
        out[range(len(pivots)), pivots] = d
        out[:, free] = num
        return out, pivots, d


# ---------------------------------------------------------------------------
# matrix polynomials


class MatPoly:
    """Polynomial with RatMatrix coefficients, low-degree first.

    The zero polynomial keeps its shape but has no stored coefficients.
    Modules store their coefficients as one integer array instead; this
    per-entry form serves as a reference, and the per-layer tracer in
    perfbench/tracer.py wraps `kron` and `__mul__` by name.
    """

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape: tuple[int, int], coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if c.shape != shape:
                raise ValueError("coefficient shape mismatch")
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("MatPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> RatMatrix:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RatMatrix.zeros(*self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __add__(self, other: "MatPoly") -> "MatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return MatPoly(self.shape, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        return self + (-other)

    def __neg__(self) -> "MatPoly":
        return MatPoly(self.shape, [-c for c in self.coeffs])

    def __mul__(self, q: Poly) -> "MatPoly":
        """The product P(u) q(u) with a scalar polynomial."""
        if self.is_zero() or q.is_zero():
            return MatPoly(self.shape)
        out = [RatMatrix.zeros(*self.shape)
               for _ in range(len(self.coeffs) + len(q.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, c in enumerate(q.coeffs):
                out[i + j] = out[i + j] + a * c
        return MatPoly(self.shape, out)

    def kron(self, other: "MatPoly") -> "MatPoly":
        shape = (self.shape[0] * other.shape[0], self.shape[1] * other.shape[1])
        if self.is_zero() or other.is_zero():
            return MatPoly(shape)
        out = [RatMatrix.zeros(*shape)
               for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a.kron(b)
        return MatPoly(shape, out)

    def __call__(self, u) -> RatMatrix:
        acc = RatMatrix.zeros(*self.shape)
        for c in reversed(self.coeffs):
            acc = acc * rat(u) + c
        return acc

    def shift(self, c) -> "MatPoly":
        """Return P(u + c), by Horner's rule in u + c."""
        step = Poly([rat(c), 1])
        out = MatPoly(self.shape)
        for coeff in reversed(self.coeffs):
            out = out * step + MatPoly(self.shape, [coeff])
        return out


# ---------------------------------------------------------------------------
# the exact integer product kernel


# float64 holds every integer below this exactly, so a product or signed sum
# whose partial sums all stay below it is exact in any summation order
FLOAT64_EXACT_LIMIT = 2 ** 53


def _as_float64(ints: np.ndarray) -> np.ndarray | None:
    """The float64 cast of an integer array, or None when an entry is past
    float64's range (about 2^1024), and so past FLOAT64_EXACT_LIMIT too.

    Rounding to nearest is monotone and FLOAT64_EXACT_LIMIT is a float64,
    so a sum, maximum or product of the casts' absolute values, all
    nonnegative, is below the limit only when the exact value is: the
    gates on the limit read their bounds off these casts."""
    try:
        return ints.astype(np.float64)
    except OverflowError:
        return None


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b of integer arrays, 2-d or stacked: float64 BLAS when
    k max|a| max|b| < 2^53 (k the inner dimension), as every partial sum
    is then an integer float64 holds, else Python-int matmul.  The maxima
    are read off the `_as_float64` casts; a bound past float64's range
    reads inf and fails the gate.  The result is int64 when both operands
    are int64 and the gate passes, and Python ints in every other case."""
    fa, fb = _as_float64(a), _as_float64(b)
    if fa is not None and fb is not None:
        # Python floats overflow to inf without numpy's RuntimeWarning
        bound = (a.shape[-1] * float(np.abs(fa).max(initial=0))
                 * float(np.abs(fb).max(initial=0)))
        if bound < FLOAT64_EXACT_LIMIT:
            # rebinding frees the casts and the float64 product before the copy
            fa = fb = (fa @ fb).astype(np.int64)
            return fa if a.dtype == b.dtype == np.int64 else fa.astype(object)
    return a.astype(object, copy=False) @ b.astype(object, copy=False)


# ---------------------------------------------------------------------------
# the exact zero test of signed sums of products


class ZeroTest:
    """Which entries of signed sums of integer matrix products are nonzero,
    decided exactly on float64 matrix products.

    The caller states M, the largest |entry| of an operand; k, the largest
    inner dimension; P, a bound on every partial sum of a product; and w,
    the largest sum of absolute coefficients of a value formed from the
    products, which is so at most D = w P (`bound`).  Operands are prepared
    once (`operand`), one float64 array per modulus with a leading axis of
    parts.  `nonzero(combine, *operands)` hands combine the parts of each
    modulus; combine indexes behind that axis, forms exact products by
    `product` and yields the arrays to test, each tested before the next is
    asked for.  The tests are ORed over the moduli.

    When D < 2^63 (the int64 tier) every value is tested for zero in int64,
    from float64 matrix products, exact as every partial sum is an integer
    below 2^53 (Dumas, Giorgi & Pernet, FFLAS-FFPACK, ACM TOMS 35(3), 2008):
    in one piece when M, P < 2^53, else from two limbs per operand, X = hi
    2^h + lo, whose four limb products are each exact and are combined in
    int64 (the error-free product of Ozaki, Ogita, Oishi & Rump, Numer.
    Algorithms 59, 2012).  For b the bit length of M and h = ceil(b/2), 0 <=
    lo < 2^h and |hi| <= 2^(b-h) <= 2^h, so the partial sums of the limb
    products and of hi lo + lo hi are at most 2 k 2^2h, which must be below
    2^53; in int64, hi hi 2^2h and (hi lo + lo hi) 2^h are at most k 2^2b
    and their sum, the product less lo lo, at most P + k 2^2h, which must be
    below 2^63.  Otherwise (the residue tier) the operands are reduced
    modulo the fewest word-size primes whose product exceeds D
    (`residue_primes`), which keep a product of residues below 2^53, and
    below 2^(63 - bits of w) when w >= 2^10; a value is nonzero exactly
    when it fails modulo some prime (the Chinese remainder theorem).
    """

    def __init__(self, top: int, inner: int, product: int, weight: int):
        self.bound = weight * product
        # below 2^53 every value formed is exact in float64 too
        self.flat = max(top, product, self.bound) < FLOAT64_EXACT_LIMIT
        self.moduli: list[int | None] = [None]
        self.shift = 0
        self._work: dict = {}
        b = top.bit_length()
        h = (b + 1) // 2
        fits = self.bound < 2 ** 63
        if fits and max(top, product) < FLOAT64_EXACT_LIMIT:
            return
        if (fits and inner << 2 * b < 2 ** 63
                and product + (inner << 2 * h) < 2 ** 63
                and inner << 2 * h + 1 < FLOAT64_EXACT_LIMIT):
            self.shift = h
        else:
            self.moduli = residue_primes(
                self.bound, inner << max(weight.bit_length() - 10, 0))

    def operand(self, ints: np.ndarray, top: int) -> list[np.ndarray]:
        """The parts of integers X, |X| <= top: X, hi and lo, or X mod p."""
        if self.moduli[0] is None and not self.shift:
            return [ints.astype(np.float64)[None]]
        if top < 2 ** 63:
            ints = ints.astype(np.int64, copy=False)
        if self.shift:
            return [np.array([ints >> self.shift,
                              ints & ((1 << self.shift) - 1)], dtype=np.float64)]
        return [(ints % p).astype(np.float64)[None] for p in self.moduli]

    def _buffer(self, shape: tuple, count: int) -> np.ndarray:
        """count float64 arrays of this shape, kept to spare page faults."""
        if (shape, count) not in self._work:
            self._work[shape, count] = np.empty((count, *shape))
        return self._work[shape, count]

    def product(self, x: np.ndarray, y: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """The product of parts x and y, equal stacks, exact or congruent on
        residues: float64 if `flat` and out is None, else int64, into out."""
        if out is None and self.flat:
            return np.matmul(x[0], y[0])
        shape = x.shape[1:-1] + y.shape[-1:]
        out = np.empty(shape, dtype=np.int64) if out is None else out
        # in out's own memory, cast in place by one forward 1-d copy
        np.matmul(x[0], y[0], out=out.view(np.float64))
        np.copyto(out.reshape(-1), out.view(np.float64).reshape(-1),
                  casting="unsafe")
        if self.shift:
            # the last float64 slot, read as int64, takes the casts
            flt = self._buffer(shape, 2)
            spare = flt[-1].view(np.int64)
            out <<= 2 * self.shift
            np.add(np.matmul(x[0], y[1], out=flt[0]),
                   np.matmul(x[1], y[0], out=flt[1]), out=flt[0])
            np.copyto(spare, flt[0], casting="unsafe")
            spare <<= self.shift
            out += spare
            np.copyto(spare, np.matmul(x[1], y[1], out=flt[0]),
                      casting="unsafe")
            out += spare
        return out

    def nonzero(self, combine, *operands) -> list[np.ndarray]:
        """One boolean array per array combine yields, set where nonzero."""
        bad: list[np.ndarray] = []
        for k, p in enumerate(self.moduli):
            for t, diff in enumerate(combine(*[op[k] for op in operands])):
                if p is None:
                    test = diff != 0
                else:
                    # x - x // p * p is x % p, and divides much faster
                    mult = self._buffer(diff.shape, 1)[0].view(np.int64)
                    np.floor_divide(diff, p, out=mult)
                    mult *= p
                    test = mult != diff
                if k:
                    bad[t] |= test
                else:
                    bad.append(test)
        return bad


# ---------------------------------------------------------------------------
# word-size primes for exact float64 products of residues


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < 3215031751."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for q in (2, 3, 5, 7):
        x = pow(q, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def residue_primes(bound: int, inner: int) -> list[int]:
    """The fewest primes whose product exceeds bound, taking the largest
    primes p with inner * (p - 1)**2 < FLOAT64_EXACT_LIMIT, in decreasing
    order; at least one, even for bound 0.

    A float64 product of two matrices with entries in [0, p) and inner
    dimension `inner` is then exact, since every partial sum is an integer
    below the limit; and an integer x with |x| <= bound that vanishes modulo
    every returned prime is 0 (Chinese remainder theorem).
    """
    # the largest c with inner * (c - 1)**2 < FLOAT64_EXACT_LIMIT
    c = math.isqrt((FLOAT64_EXACT_LIMIT - 1) // inner) + 1
    primes: list[int] = []
    product = 1
    while not primes or product <= bound:
        while not _is_prime(c):
            if c < 2:
                raise ValueError("too few word-size primes for inner "
                                 f"dimension {inner}")
            c -= 1
        primes.append(c)
        product *= c
        c -= 1
    return primes


# ---------------------------------------------------------------------------
# exact elimination modulo primes below 2^31


def _elimination_primes() -> Iterator[int]:
    """The primes below 2^31, largest first.  Residues are below 2^31, so
    every product of two fits int64, below 2^62."""
    return map(_elimination_prime, itertools.count())


@cache
def _elimination_prime(k: int) -> int:
    """The k-th prime below 2^31, largest first, from k = 0."""
    p = 2 ** 31 - 1 if k == 0 else _elimination_prime(k - 1) - 2
    while not _is_prime(p):
        p -= 2
    return p


def _residues(ints: np.ndarray, p: int) -> np.ndarray:
    """An integer array, int64 or Python ints, modulo p, in [0, p), as
    int64."""
    return (ints % p).astype(np.int64)


def _crt(x: np.ndarray, modulus: int, r: np.ndarray, p: int) -> np.ndarray:
    """Garner's step: the array in [0, modulus p) of Python ints congruent
    to x modulo modulus and to the int64 residues r modulo p."""
    t = (r - _residues(x, p)) % p * pow(modulus, -1, p) % p
    return x.astype(object) + modulus * t.astype(object)


def _rref_mod(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of an int64 matrix
    with entries in [0, p) modulo the prime p, and its pivot columns; m is
    overwritten.  Each pivot updates only the rows nonzero in its column,
    from that column on, since left of it the pivot row is zero; rows are
    not swapped, the pivot rows are gathered in order at the end."""
    open_rows = np.ones(len(m), dtype=bool)
    rows: list[int] = []
    pivots: list[int] = []
    for c in range(m.shape[1]):
        hit = m[:, c].nonzero()[0]
        candidates = hit[open_rows[hit]]
        if not len(candidates):
            continue
        r = candidates[0]
        row = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        # a + (p - b) row < p^2 < 2^62; the pivot row becomes 0, then row
        if len(hit) > 1:
            m[hit, c:] = (m[hit, c:] + (p - m[hit, c, None]) * row) % p
        m[r, c:] = row
        open_rows[r] = False
        rows.append(r)
        pivots.append(c)
        if len(rows) == len(m):
            break
    return m[rows], pivots


def _wang(x: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """The fraction a / b in lowest terms with a = b x modulo modulus,
    |a| <= bound and 0 < b <= bound, or None; for 2 bound^2 < modulus it
    is unique (Wang 1981), found by the extended Euclidean algorithm on
    (modulus, x) stopped at the first remainder <= bound."""
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(x: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """The fractions a / b = x modulo modulus with |a|, b <= sqrt(modulus /
    2), as Python-int numerators over their least common denominator, or
    None when an entry has none.

    x holds residues in [0, modulus).  While the common denominator D is
    within the bound, every entry whose symmetric residue of D x is within
    it too is read off at once (by uniqueness that residue over D is its
    fraction); the first entry left is reconstructed alone (`_wang`) and
    its denominator joins D.  When that adds nothing, or D passes the
    bound, the entries left are reconstructed one by one.
    """
    bound, half = math.isqrt(modulus // 2), modulus // 2
    flat = x.ravel()
    num, den = flat, 1
    while True:
        num = np.where(num > half, num - modulus, num)
        todo = (abs(num) > bound).nonzero()[0]
        if not len(todo):
            return num.astype(object).reshape(x.shape), den
        got = _wang(int(flat[todo[0]]), modulus, bound)
        if got is None:
            return None
        grown = math.lcm(den, got[1])
        if grown == den or grown > bound:
            break
        den = grown
        num = flat * den % modulus
    num = num.astype(object)
    for i in todo:
        got = _wang(int(flat[i]), modulus, bound)
        if got is None:
            return None
        a, b = got
        if den % b:
            grown = math.lcm(den, b)
            num *= grown // den
            den = grown
        num[i] = a * (den // b)
    return num.reshape(x.shape), den
