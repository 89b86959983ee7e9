"""Exact-arithmetic representations of the Yangian of gl_n.

Finite-dimensional modules are stored with rational-function matrix entries
held exactly (integer numerators over one denominator per coefficient
matrix).  Subpackages:

- linalg: polynomials, rational functions, fraction-free linear algebra
- fock: polynomial / Grassmann multiparticle spaces and gl_n operators
- modules: module constructors (evaluation, one-dimensional, tensor, shifts)
- verify: defining-relation checks, highest weights, Drinfeld polynomials
- hd: multivariable operator realization and its consistency checks
- intertwine: swap operators, their compositions, kernels and quotients
- cli: batch runner with JSON reports
"""

from .linalg import Poly, RatFunc, RatMatrix, Rational, nullspace, poly_rational_roots

__all__ = [
    "Poly",
    "RatFunc",
    "RatMatrix",
    "Rational",
    "nullspace",
    "poly_rational_roots",
]
