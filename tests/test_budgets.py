"""Every work budget admits a config exactly at its limit and refuses one
just past it.

Each budget is a bound on a count made before any matrix is built, and its
gate compares the count to the constant with `>`.  Where a cheap config
counts exactly the limit (n = 3 at dim 81 for RTT_MAX_SIZE, n = 4 with
nu = (2, 2) for STEP_MAX_WORK, n = 2 with nu = (15, 31) for
MODULE_MAX_SIZE) the test runs it at the real constant, else the constant
is set to a small config's count; the same config is then refused with the
constant one lower.
"""

import math
import re
from fractions import Fraction

import pytest

from yangian import hd, intertwine, modules, verify
from yangian.hd import OperatorRealization, x_series
from yangian.intertwine import _check_step_work, hom_space
from yangian.modules import (ModuleParams, check_pattern_size,
                             evaluation_module, pattern_module, source_pattern,
                             tensor_module)
from yangian.verify import check_rtt


def _params(n, nu):
    m = len(nu)
    return ModuleParams(1, n, 1, m - 1, [Fraction(b + 1, 7) for b in range(m)],
                        nu)


def test_module_budget_admits_its_edge(monkeypatch):
    # n = 2, nu = (15, 31): dims 16 and 32, n dim = 1024
    params = _params(2, [15, 31])
    factors = source_pattern(params)
    assert modules.MODULE_MAX_SIZE == 1024
    check_pattern_size(params, factors)
    monkeypatch.setattr(modules, "MODULE_MAX_SIZE", 1023)
    with pytest.raises(ValueError, match="n \\* dim = 1024, over the budget"):
        check_pattern_size(params, factors)


def test_rtt_budget_admits_its_edge(monkeypatch):
    # n = 3, nu = (1, 1, 1, 1): dim 81, n^2 dim = 729
    params = _params(3, [1, 1, 1, 1])
    mod = pattern_module(params, source_pattern(params))
    assert verify.RTT_MAX_SIZE == 9 * mod.dim == 729
    assert check_rtt(mod).ok
    monkeypatch.setattr(verify, "RTT_MAX_SIZE", 728)
    with pytest.raises(ValueError, match="n\\^2 \\* dim = 729, over the"):
        check_rtt(mod)


def test_step_budget_admits_its_edge(monkeypatch):
    # n = 4, nu = (2, 2): pair dim 10 * 10, work 100^3 * 4 = 4e6
    params = _params(4, [2, 2])
    fa, fb = source_pattern(params)
    assert intertwine.STEP_MAX_WORK == 4_000_000
    _check_step_work(params, fa, fb)
    monkeypatch.setattr(intertwine, "STEP_MAX_WORK", 3_999_999)
    with pytest.raises(ValueError, match="work 4000000, over the budget"):
        _check_step_work(params, fa, fb)


def test_hom_space_budget_admits_its_edge(monkeypatch):
    # the count after the diagonal pairs, read off the refusal at budget 0
    mods = [evaluation_module(2, Fraction(1, 7)),
            evaluation_module(2, Fraction(3, 7))]
    m1, m2 = tensor_module(*mods), tensor_module(*mods[::-1])
    monkeypatch.setattr(intertwine, "HOM_SPACE_MAX_UNKNOWNS", 0)
    with pytest.raises(ValueError) as refused:
        hom_space(m1, m2)
    count = int(re.search(r"(\d+) after the diagonal pairs",
                          str(refused.value)).group(1))
    assert count > 1
    monkeypatch.setattr(intertwine, "HOM_SPACE_MAX_UNKNOWNS", count)
    assert len(hom_space(m1, m2)) == 1
    monkeypatch.setattr(intertwine, "HOM_SPACE_MAX_UNKNOWNS", count - 1)
    with pytest.raises(ValueError, match=f"{count} after the diagonal pairs"):
        hom_space(m1, m2)


def test_basis_budget_admits_its_edge(monkeypatch):
    # m = 1, n = 2, truncation 2: C(4, 2) = 6 monomials
    size = math.comb(2 + 2, 2)
    monkeypatch.setattr(hd, "BASIS_MAX_SIZE", size)
    assert OperatorRealization(1, 1, 2, 0, 2).nvars == 2
    monkeypatch.setattr(hd, "BASIS_MAX_SIZE", size - 1)
    with pytest.raises(ValueError, match=f"basis of {size} monomials"):
        OperatorRealization(1, 1, 2, 0, 2)


def test_work_budget_admits_its_edge(monkeypatch):
    # the series of m = 2 to order 3 in the defining rep: its identity
    # count times rep_dim 2
    work = hd._series_identities(2, 3) * 2
    monkeypatch.setattr(hd, "WORK_MAX", work)
    assert hd.check_x_identities(x_series(1, 2, 3)).ok
    monkeypatch.setattr(hd, "WORK_MAX", work - 1)
    with pytest.raises(ValueError, match=f"{work} identity evaluations"):
        x_series(1, 2, 3)
