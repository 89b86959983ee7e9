"""Sign conventions and gl_n relations for the coordinate operators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from yangian.fock import (
    PLAIN,
    PRIME,
    TILDE,
    FockSpace,
    apply_word,
    block_basis,
    first_variables_monomial,
    last_variables_monomial,
)
from yangian.hd import OperatorRealization
from yangian.linalg import RatMatrix

from reference import apply_operator


def word_image(space, atoms, b):
    """Word image as a dict {exponent tuple: coeff}, empty if annihilated."""
    hit = apply_word(space.theta, space.n, atoms, b)
    if hit is None:
        return {}
    c, nb = hit
    return {nb: Fraction(c)}


def test_block_dimensions():
    assert len(block_basis(1, 3, 4)) == math.comb(3 + 4 - 1, 4)
    assert len(block_basis(-1, 4, 2)) == math.comb(4, 2)
    assert block_basis(1, 2, 0) == [(0, 0)]
    with pytest.raises(ValueError):
        block_basis(-1, 2, 3)


def test_commutation_rule_on_all_degrees():
    # d_i x_j - theta x_j d_i = delta_ij, applied to every monomial
    for theta in (1, -1):
        n = 3
        for deg in range(0, n + 1):
            space = FockSpace(theta, n, (deg,))
            for i in range(n):
                for j in range(n):
                    for b in space.basis:
                        lhs = word_image(space, (("d", 0, i), ("x", 0, j)), b)
                        rhs = word_image(space, (("x", 0, j), ("d", 0, i)), b)
                        total = {}
                        for t, c in lhs.items():
                            total[t] = total.get(t, 0) + c
                        for t, c in rhs.items():
                            total[t] = total.get(t, 0) - theta * c
                        if i == j:
                            total[b] = total.get(b, 0) - 1
                        assert all(c == 0 for c in total.values())


def test_anticommuting_signs():
    empty = (0, 0, 0)
    # x_1 (x_2 b) and x_2 (x_1 b) differ by a sign
    c1, m1 = apply_word(-1, 3, (("x", 0, 0), ("x", 0, 1)), empty)
    c2, m2 = apply_word(-1, 3, (("x", 0, 1), ("x", 0, 0)), empty)
    assert m1 == m2 == (1, 1, 0)
    assert c1 == -c2 == 1
    # left derivation at position 2 of x_1^x_2 carries (-1)
    c3, m3 = apply_word(-1, 3, (("d", 0, 1),), (1, 1, 0))
    assert (c3, m3) == (-1, (1, 0, 0))


def test_all_flavors_satisfy_gl_relations():
    for theta in (1, -1):
        for n, deg in ((2, 2), (3, 1)):
            space = FockSpace(theta, n, (deg,))
            for flavor in (PLAIN, TILDE, PRIME):
                K = {(i, j): RatMatrix(space.gl_action_matrix(flavor, i, j)
                                       .tolist())
                     for i in range(n) for j in range(n)}
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            for l in range(n):
                                lhs = K[i, j] * K[k, l] - K[k, l] * K[i, j]
                                rhs = RatMatrix.zeros(space.dim, space.dim)
                                if j == k:
                                    rhs = rhs + K[i, l]
                                if l == i:
                                    rhs = rhs - K[k, j]
                                assert lhs == rhs, (theta, flavor, i, j, k, l)


@pytest.mark.parametrize("theta", [1, -1])
def test_flavors_match_realization_quadratic_elements(theta):
    # in a one-block realization E^_{0i,0j} is x_i d_j for p = 0 and
    # -theta d_i x_j for p = 1: the plain and tilde coefficient operators
    for n in (1, 2, 3):
        for deg in range(n + 1 if theta == -1 else 4):
            space = FockSpace(theta, n, (deg,))
            for p, flavor in ((0, PLAIN), (1, TILDE)):
                real = OperatorRealization(theta, 1, n, p)
                for i in range(n):
                    for j in range(n):
                        c, word = real.e_hat(0, i, 0, j)
                        mat = space.gl_action_matrix(flavor, i, j)
                        for k, b in enumerate(space.basis):
                            image = apply_operator(real, [(c, None, word)],
                                                   {(0, b): 1})
                            expect = {(0, space.basis[r]): int(mat[r, k])
                                      for r in range(space.dim) if mat[r, k]}
                            assert image == expect, (theta, flavor, i, j, b)
            for i in range(n):
                for j in range(n):
                    assert np.array_equal(
                        space.gl_action_matrix(PRIME, i, j),
                        -space.gl_action_matrix(PLAIN, j, i))


def test_number_operator_is_degree():
    for theta in (1, -1):
        space = FockSpace(theta, 3, (2,))
        total = sum(space.gl_action_matrix(PLAIN, i, i) for i in range(3))
        assert np.array_equal(total, 2 * np.eye(space.dim, dtype=int))


def test_multi_block_basis_is_row_major():
    space = FockSpace(1, 2, (1, 1))
    b1 = block_basis(1, 2, 1)
    expect = [x + y for x in b1 for y in b1]
    assert space.basis == expect
    assert space.dim == 4


def test_special_monomials():
    assert first_variables_monomial(1, 3, 2) == (2, 0, 0)
    assert last_variables_monomial(1, 3, 2) == (0, 0, 2)
    assert first_variables_monomial(-1, 4, 2) == (1, 1, 0, 0)
    assert last_variables_monomial(-1, 4, 2) == (0, 0, 1, 1)
    space = FockSpace(-1, 4, (2,))
    assert last_variables_monomial(-1, 4, 2) in space.index
