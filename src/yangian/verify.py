"""Verification engine: defining relations, highest weights, Drinfeld data.

The defining-relation check works with cleared numerators.  Writing the
action as T_ij(u) = P_ij(u)/d(u), the relation R(u-v) T1(u) T2(v) =
T2(v) T1(u) R(u-v) reads, component by component (Molev 2007),

    (u-v) [P_ij(u), P_kl(v)] = P_kj(u) P_il(v) - P_kj(v) P_il(u)

for all i, j, k, l; the scalar d(u) d(v) cancels.  Each side is a
polynomial in (u, v) of degree at most (deg d + 1) in each variable, so
checking it on a (deg d + 2) x (deg d + 2) grid of points that avoid the
poles proves it identically.  At a grid point the blocks P_ij(u0) are
evaluated once and stacked as integer numerators over one common
denominator; both sides are bilinear in the blocks at u0 and v0, so the
denominators cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fock import PLAIN, PRIME, TILDE
from .linalg import Poly, RatFunc, RatMatrix, int_matmul, poly_rational_roots, rat
from .modules import ModuleParams, PatternFactor, YangianModule, source_pattern


@dataclass
class RttReport:
    """Verdict of the grid proof; failure names the first failing grid pair
    (u, v) and entry (i, j, k, l, r, s): matrix element (r, s) of the
    component relation for the generators T_ij(u), T_kl(v)."""

    ok: bool
    n: int
    dim: int
    den_degree: int
    points_u: list = field(default_factory=list)
    points_v: list = field(default_factory=list)
    failure: dict | None = None


def _grid_points(den: Poly, count: int, base: int) -> list[int]:
    pts = []
    u0 = base
    while len(pts) < count:
        if den(Fraction(u0)) != 0:
            pts.append(u0)
        u0 += 1
    return pts


def _stacked_blocks(mod: YangianModule, u0: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators of the blocks P_ij(u0) over their one common
    denominator, as a vertical stack (rows (i, j, r)) and a horizontal stack
    (columns (i, j, s))."""
    n, dim = mod.n, mod.dim
    ints = RatMatrix.stack([[mod.num[i][j](u0)] for i in range(n)
                            for j in range(n)]).data
    return ints, (ints.reshape(n, n, dim, dim).transpose(2, 0, 1, 3)
                  .reshape(dim, n * n * dim))


def check_rtt(mod: YangianModule, base: int = 10) -> RttReport:
    """Prove the defining relation for the module by grid evaluation."""
    n, dim = mod.n, mod.dim
    degree = mod.den.degree
    pts = _grid_points(mod.den, degree + 2, base)
    stacks = {u0: _stacked_blocks(mod, u0) for u0 in pts}
    shape = (n, n, dim, n, n, dim)
    report = RttReport(True, n, dim, degree, list(pts), list(pts))
    for u0 in pts:
        for v0 in pts:
            # with A = P(u0), B = P(v0): ab[i, j, k, l] = A_ij B_kl and
            # ba[i, j, k, l] = B_ij A_kl, matrix indices (r, s) last
            ab = int_matmul(stacks[u0][0], stacks[v0][1])
            ba = int_matmul(stacks[v0][0], stacks[u0][1])
            ab = ab.reshape(shape).transpose(0, 1, 3, 4, 2, 5)
            ba = ba.reshape(shape).transpose(0, 1, 3, 4, 2, 5)
            lhs = (u0 - v0) * (ab - ba.transpose(2, 3, 0, 1, 4, 5))
            rhs = (ab - ba).swapaxes(0, 2)
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                report.ok = False
                report.failure = {"u": u0, "v": v0,
                                  "entry": tuple(int(x) for x in bad[0])}
                return report
    return report


# ---------------------------------------------------------------------------
# highest weight vectors and eigenvalues


def highest_weight_vectors(mod: YangianModule) -> list[list[Fraction]]:
    """Basis of the space killed by every T_ij(u) with i < j."""
    blocks = [[mod.num[i][j].coeff(k)] for i in range(mod.n)
              for j in range(i + 1, mod.n)
              for k in range(mod.num[i][j].degree + 1)]
    if not blocks:
        return [[Fraction(1) if r == k else Fraction(0) for r in range(mod.dim)]
                for k in range(mod.dim)]
    return RatMatrix.stack(blocks).nullspace()


def eigenvalue_of(mod: YangianModule, i: int, vec) -> RatFunc:
    """T_ii(u) eigenvalue on vec as a rational function; raises if not eigen."""
    entry = mod.num[i][i]
    images = entry.apply(vec)
    pivot = next((r for r, x in enumerate(vec) if x != 0), None)
    if pivot is None:
        raise ValueError("zero vector")
    coeffs = [img[pivot] / vec[pivot] for img in images]
    for k, img in enumerate(images):
        for r in range(mod.dim):
            if img[r] != coeffs[k] * vec[r]:
                raise ValueError(f"vector is not an eigenvector of entry {i}")
    return RatFunc(Poly(coeffs), mod.den)


def hw_eigenvalues(mod: YangianModule, vec) -> list[RatFunc]:
    return [eigenvalue_of(mod, i, vec) for i in range(mod.n)]


def is_highest_weight(mod: YangianModule, vec) -> bool:
    for i in range(mod.n):
        for j in range(i + 1, mod.n):
            for img in mod.num[i][j].apply(vec):
                if any(x != 0 for x in img):
                    return False
    return True


# ---------------------------------------------------------------------------
# Drinfeld polynomials


class DrinfeldError(ValueError):
    pass


@dataclass
class DrinfeldData:
    polys: list[Poly]           # monic, one per i = 1..n-1
    eigenvalues: list[RatFunc]  # all n diagonal eigenvalues on the hw vector


def _coset_key(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def ratio_to_drinfeld_poly(ratio: RatFunc) -> Poly:
    """Recover monic P with P(u + 1/2) / P(u - 1/2) = ratio.

    The numerator and denominator roots are paired inside each translation
    class of the rationals; the result is verified by direct recomputation,
    so a wrong pairing cannot slip through.
    """
    if ratio.is_one():
        return Poly([1])
    num_roots, num_rest = poly_rational_roots(ratio.num)
    den_roots, den_rest = poly_rational_roots(ratio.den)
    if num_rest.degree != 0 or den_rest.degree != 0:
        raise DrinfeldError("eigenvalue ratio has irrational roots")
    by_coset: dict[Fraction, tuple[list, list]] = {}
    for r in num_roots:
        by_coset.setdefault(_coset_key(r), ([], []))[0].append(r)
    for r in den_roots:
        by_coset.setdefault(_coset_key(r), ([], []))[1].append(r)
    roots = []
    for _, (ns, ds) in sorted(by_coset.items()):
        if len(ns) != len(ds):
            raise DrinfeldError("unbalanced root strings in eigenvalue ratio")
        for a, b in zip(sorted(ns), sorted(ds)):
            steps = b - a
            if steps.denominator != 1 or steps < 1:
                raise DrinfeldError("root string does not descend by integers")
            half = Fraction(1, 2)
            roots.extend(a + half + t for t in range(int(steps)))
    poly = Poly.from_roots(roots)
    check = RatFunc(poly.shift(Fraction(1, 2)), poly.shift(Fraction(-1, 2)))
    if check != ratio:
        raise DrinfeldError("recovered polynomial fails verification")
    return poly


def drinfeld_data(mod: YangianModule, vec=None) -> DrinfeldData:
    """Drinfeld polynomials and diagonal eigenvalues of the hw vector."""
    if vec is None:
        basis = highest_weight_vectors(mod)
        if len(basis) != 1:
            raise DrinfeldError(
                f"highest weight space has dimension {len(basis)}, need 1")
        vec = basis[0]
    eigen = hw_eigenvalues(mod, vec)
    polys = [ratio_to_drinfeld_poly(eigen[i] / eigen[i + 1])
             for i in range(mod.n - 1)]
    return DrinfeldData(polys, eigen)


# ---------------------------------------------------------------------------
# module comparisons


def scalar_twist_between(m1: YangianModule, m2: YangianModule) -> RatFunc | None:
    """g with T1 = g T2 entrywise, or None; g = 1 means equal actions."""
    if (m1.n, m1.dim) != (m2.n, m2.dim):
        return None
    g = None
    for i in range(m1.n):
        for j in range(m1.n):
            for r in range(m1.dim):
                for s in range(m1.dim):
                    e1 = m1.entry_ratfunc(i, j, r, s)
                    e2 = m2.entry_ratfunc(i, j, r, s)
                    if e1.is_zero() != e2.is_zero():
                        return None
                    if e1.is_zero():
                        continue
                    cand = e1 / e2
                    if g is None:
                        g = cand
                    elif g != cand:
                        return None
    return g


# ---------------------------------------------------------------------------
# closed-form eigenvalue products


def factor_hw_eigenvalue(theta: int, n: int, factor: PatternFactor,
                         i: int) -> RatFunc:
    """Closed-form T_ii(u) eigenvalue of one pattern factor (0-based i).

    The eigenvector is the factor's extreme monomial: the top-variable
    monomial for tilde/prime kinds and the bottom-variable monomial for the
    plain kind.  Degree-zero factors are trivial and contribute 1.
    """
    nu = factor.degree
    one = RatFunc(Poly.const(1), Poly.const(1))
    if nu == 0:
        return one

    def lin(c) -> Poly:
        return Poly([rat(c), 1])

    z = factor.param
    if theta == 1:
        if factor.kind == PLAIN:
            return RatFunc(lin(z + nu), lin(z)) if i == 0 else one
        if factor.kind == TILDE:
            if i == n - 1:
                return RatFunc(lin(z - nu - 1), lin(z))
            return RatFunc(lin(z - 1), lin(z))
        if factor.kind == PRIME:
            if i == n - 1:
                return RatFunc(lin(z - 1 - nu), lin(z - 1))
            return one
    else:
        if factor.kind == PLAIN:
            return RatFunc(lin(1 - z), lin(-z)) if i < nu else one
        if factor.kind == TILDE:
            return RatFunc(lin(1 - z), lin(-z)) if i < n - nu else one
        if factor.kind == PRIME:
            return RatFunc(lin(-z), lin(1 - z)) if i >= n - nu else one
    raise ValueError(f"unknown factor kind {factor.kind!r}")


def closed_form_eigenvalues(params: ModuleParams,
                            factors: list[PatternFactor] | None = None
                            ) -> list[RatFunc]:
    """Product over factors of the per-slot diagonal eigenvalue formulas.

    These are the eigenvalues of T_ii(u) on the distinguished vector of the
    pattern module; with the default factor list they describe the source
    pattern itself.
    """
    if factors is None:
        factors = source_pattern(params)
    out = []
    for i in range(params.n):
        val = RatFunc(Poly.const(1), Poly.const(1))
        for f in factors:
            val = val * factor_hw_eigenvalue(params.theta, params.n, f, i)
        out.append(val)
    return out
