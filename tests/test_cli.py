"""Tests for the config-driven command line and its report contract."""

import json
import math
import re
import signal
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yangian import cli, hd
from yangian.cli import ConfigError, config_from_dict, list_checks, run
from yangian.intertwine import zeta_factor
from yangian.modules import ModuleParams


GENERIC = {
    "theta": 1, "n": 2, "p": 1, "q": 1,
    "mu": ["1/7", "12/7"], "nu": [2, 1],
}


def make_config(**extra):
    return config_from_dict({**GENERIC, **extra})


# ---------------------------------------------------------------------------
# config validation


def test_config_parses_rationals_and_defaults():
    cfg = make_config()
    assert cfg.mu == (Fraction(1, 7), Fraction(12, 7))
    assert cfg.checks == ("rtt",)
    assert cfg.truncation == 6 and cfg.order == 4
    assert cfg.word == ()


@pytest.mark.parametrize("patch,message", [
    ({"theta": 2}, "theta"),
    ({"mu": ["1/7"]}, "mu"),
    ({"nu": [2, -1]}, "nu"),
    ({"mu": ["1/0", "2"]}, "mu"),
    ({"word": [5]}, "word"),
    ({"checks": ["no-such-check"]}, "unknown check"),
    ({"checks": []}, "checks"),
    ({"bogus": 1}, "unknown fields"),
])
def test_config_field_diagnostics(patch, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({**GENERIC, **patch})


def test_config_requires_all_core_fields():
    data = dict(GENERIC)
    del data["nu"]
    with pytest.raises(ConfigError, match="nu. required"):
        config_from_dict(data)


def test_genericity_violation_names_the_pair():
    with pytest.raises(ConfigError, match=r"genericity violated.*\(1, 2\)"):
        config_from_dict({**GENERIC, "mu": [0, 1]})
    cfg = config_from_dict({**GENERIC, "mu": [0, 1], "allow_resonant": True})
    assert cfg.allow_resonant


# ---------------------------------------------------------------------------
# running checks


def test_run_generic_suite_passes():
    cfg = make_config(checks=["rtt", "isomorphisms", "hw-eigenvalues",
                              "drinfeld", "hw-scalar", "kernel-quotient"])
    report = run(cfg)
    assert report.ok and report.status == "pass"
    assert [r["name"] for r in report.records] == list(cfg.checks)
    assert all(r["status"] == "pass" for r in report.records)


def test_hw_scalar_record_contains_closed_form():
    cfg = config_from_dict({
        "theta": 1, "n": 2, "p": 2, "q": 0,
        "mu": ["1/7", "12/7"], "nu": [2, 1],
        "checks": ["hw-scalar"], "word": [1],
    })
    report = run(cfg)
    record = report.records[0]
    assert record["status"] == "pass"
    params = ModuleParams(1, 2, 2, 0, [Fraction(1, 7), Fraction(12, 7)], [2, 1])
    zeta = zeta_factor(params, (0, 1))
    expected = f"{zeta.value.numerator}/{zeta.value.denominator}"
    assert record["details"]["scalar"] == expected
    assert record["details"]["closed_form"] == expected
    assert record["details"]["factors"][0]["pair"] == [1, 2]


def test_braid_check_passes_for_three_factors():
    cfg = config_from_dict({
        "theta": -1, "n": 2, "p": 1, "q": 2,
        "mu": ["1/7", "12/7", "-12/7"], "nu": [1, 1, 1],
        "checks": ["braid", "hw-scalar"],
    })
    report = run(cfg)
    assert report.ok
    assert report.records[0]["details"]["matrices_equal"]


def test_braid_check_errors_for_two_factors():
    cfg = make_config(checks=["braid"])
    report = run(cfg)
    assert not report.ok
    assert report.records[0]["status"] == "error"
    assert "three factors" in report.records[0]["details"]["error"]


def test_degenerate_kernel_quotient_via_cli():
    cfg = config_from_dict({
        "theta": 1, "n": 2, "p": 0, "q": 2, "mu": [0, 2], "nu": [1, 1],
        "allow_resonant": True, "checks": ["kernel-quotient"], "word": [1],
    })
    report = run(cfg)
    record = report.records[0]
    assert record["status"] == "pass"
    assert record["details"]["kernel_dim"] == 1
    assert record["details"]["quotient_irreducible"]


def test_operator_checks_run_from_config():
    cfg = make_config(checks=["e-relations", "zeta-hom", "alpha-series",
                              "appendix-x-identities"],
                      order=3, truncation=5)
    report = run(cfg)
    assert report.ok
    by_name = {r["name"]: r for r in report.records}
    assert by_name["alpha-series"]["details"]["order"] == 3
    assert by_name["e-relations"]["details"]["checked"] > 0


def test_reports_are_deterministic():
    cfg = make_config(checks=["rtt", "hw-scalar"])
    first, second = run(cfg), run(cfg)

    def strip(report):
        data = report.to_dict()
        for rec in data["checks"]:
            rec.pop("time", None)
        return json.dumps(data, sort_keys=True)

    assert strip(first) == strip(second)


def test_report_serializes_rationals_as_strings():
    report = run(make_config(checks=["hw-eigenvalues"]))
    text = report.to_json()
    data = json.loads(text)
    eigen = data["checks"][0]["details"]["computed"]
    for entry in eigen:
        for coeff in entry["num"] + entry["den"]:
            num, den = coeff.split("/")
            int(num), int(den)
    assert data["config"]["mu"] == ["1/7", "12/7"]


def test_list_checks_registry():
    names = [c["name"] for c in list_checks()]
    assert "rtt" in names
    assert "braid" in names
    assert "appendix-x-identities" in names
    assert all(c["description"] and c["identity"] for c in list_checks())


# ---------------------------------------------------------------------------
# entry point and exit codes


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_main_pass_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    path = write_config(tmp_path, {**GENERIC, "checks": ["rtt"]})
    code = cli.main(["--config", path, "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    capsys.readouterr()


def test_main_stdout_when_no_output(tmp_path, capsys):
    path = write_config(tmp_path, {**GENERIC, "checks": ["rtt"]})
    assert cli.main(["--config", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["name"] == "rtt"


def test_main_exit_one_on_failing_run(tmp_path, capsys):
    path = write_config(tmp_path, {**GENERIC, "checks": ["braid"]})
    assert cli.main(["--config", path]) == 1
    capsys.readouterr()


def test_hom_space_budget_fails_cleanly(tmp_path, capsys):
    # degrees (2, 3) with n = 3 span dim 60: 3600 unknowns per map, 204
    # of them left by the diagonal coefficient pairs
    path = write_config(tmp_path, {
        "theta": 1, "n": 3, "p": 1, "q": 1, "nu": [2, 3],
        "mu": ["1/7", "2/7"], "checks": ["kernel-quotient"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert ("3600 unknowns, 204 after the diagonal pairs, over the budget "
            "of 200") in record["details"]["error"]
    capsys.readouterr()


def test_rtt_budget_fails_cleanly(tmp_path, capsys):
    # two degree-1 factors with n = 6 span dim 36: n^2 dim = 1296
    path = write_config(tmp_path, {
        "theta": 1, "n": 6, "p": 1, "q": 1, "nu": [1, 1],
        "mu": ["1/7", "2/7"], "checks": ["rtt"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert "n^2 * dim = 1296, over the budget of 729" in record["details"]["error"]
    capsys.readouterr()


def test_realization_budget_fails_cleanly(tmp_path, capsys):
    # one factor at n = 2000: C(2006, 6) monomials of degree <= 6; the
    # enumeration used to end in a RecursionError with no report written
    path = write_config(tmp_path, {
        "theta": 1, "n": 2000, "p": 0, "q": 1, "nu": [1],
        "mu": ["1/7"], "checks": ["e-relations"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert (f"realization basis of {math.comb(2006, 6)} monomials "
            "(m n = 2000, truncation 6), over the budget of 20000"
            in record["details"]["error"])
    capsys.readouterr()


@pytest.mark.parametrize("patch,check,message", [
    # 16 exterior variables: 6 * 16^2 canonical relations on 2^16 keys,
    # counted before realize checks any of them
    ({"theta": -1, "n": 4, "p": 0, "q": 4, "nu": [1, 1, 1, 1],
      "mu": ["1/7", "2/7", "3/7", "4/7"]}, "e-relations",
     "canonical-relations: 100663296 identity evaluations"),
    # 70 exterior variables: 6 * 70^2 * 2^70, shown by its power of two
    ({"theta": -1, "n": 70, "p": 0, "q": 1, "nu": [1], "mu": ["1/7"]},
     "e-relations", "canonical-relations: 2^84 or more identity evaluations"),
    # (C(10^6 + 2, 2) - 1) (2^2 + 2^4) series identities, rep_dim 2,
    # counted before the series is expanded
    ({"order": 10 ** 6}, "alpha-series",
     "x_series to order 1000000: 20000060000000 identity evaluations"),
    ({"order": 10 ** 6}, "appendix-x-identities",
     "x_series to order 1000000: 20000060000000 identity evaluations"),
])
def test_operator_work_budget_fails_cleanly(tmp_path, capsys, patch, check,
                                            message):
    path = write_config(tmp_path, {**GENERIC, **patch, "checks": [check]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert (f"{message}, over the budget of 6000000"
            in record["details"]["error"])
    capsys.readouterr()


@pytest.mark.parametrize("n,nu,size", [
    # one degree-1 factor at n = 2000: dim 2000
    (2000, [1], 4000000),
    # six degree-1 factors at n = 3: dim 729
    (3, [1] * 6, 2187),
])
def test_module_budget_fails_cleanly(tmp_path, capsys, n, nu, size):
    path = write_config(tmp_path, {
        "theta": 1, "n": n, "p": 0, "q": len(nu), "nu": nu,
        "mu": [f"{b + 1}/7" for b in range(len(nu))],
        "checks": ["rtt", "hw-eigenvalues"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    for record in json.loads(out.read_text())["checks"]:
        assert record["status"] == "error"
        assert (f"n * dim = {size}, over the budget of 1024"
                in record["details"]["error"])
    capsys.readouterr()


def test_step_budget_fails_cleanly(tmp_path, capsys):
    # dim 256, inside the module budget; the parent did not finish in 290 s
    path = write_config(tmp_path, {
        "theta": 1, "n": 2, "p": 0, "q": 2, "mu": ["1/7", "3/7"],
        "nu": [15, 15], "checks": ["hw-scalar"]})
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    assert time.perf_counter() - start < 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert record["details"]["error"] == (
        "ValueError: swap step on a pair of dim 256 at n = 2: "
        "work 33554432, over the budget of 4000000")
    capsys.readouterr()


@pytest.mark.parametrize("n,nu,check,size", [
    # C(2003, 3) monomials in the first factor: counted, never listed
    (4, [2000, 1], "hw-scalar", 4 * math.comb(2003, 3)),
    (4, [2000, 1, 1], "braid", 4 * math.comb(2003, 3)),
    # degree-1 factors at n = 2000: the module budget is met before the
    # step budget
    (2000, [1, 1], "hw-scalar", 4000000),
])
def test_swap_module_budget_fails_at_once(tmp_path, capsys, n, nu, check,
                                          size):
    path = write_config(tmp_path, {
        "theta": 1, "n": n, "p": 0, "q": len(nu), "nu": nu,
        "mu": [f"{b + 1}/7" for b in range(len(nu))], "checks": [check]})
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    assert time.perf_counter() - start < 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert record["details"]["error"] == (
        f"ValueError: module of n * dim = {size}, over the budget of 1024")
    capsys.readouterr()


def test_run_parameters_have_no_command_line_flags(tmp_path, capsys):
    path = write_config(tmp_path, GENERIC)
    for flag in ("--order", "--truncation"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", path, flag, "3"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_drinfeld_with_ten_digit_mu_denominators(tmp_path, capsys):
    # prime denominators near 10^9: the eigenvalue ratios have roots with
    # 10-digit numerators and denominators
    path = write_config(tmp_path, {
        "theta": 1, "n": 2, "p": 0, "q": 2, "nu": [1, 1],
        "mu": ["1/1000000007", "1/998244353"],
        "checks": ["drinfeld", "hw-eigenvalues"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 0
    records = json.loads(out.read_text())["checks"]
    assert [r["status"] for r in records] == ["pass", "pass"]
    capsys.readouterr()


def test_main_exit_two_on_config_problems(tmp_path, capsys):
    bad = write_config(tmp_path, {**GENERIC, "mu": [0, 1]})
    assert cli.main(["--config", bad]) == 2
    assert "genericity violated" in capsys.readouterr().err
    # rejected when the run builds its module parameters, not while parsing
    anti = write_config(tmp_path, {**GENERIC, "theta": -1, "nu": [3, 1]})
    assert cli.main(["--config", anti]) == 2
    assert "cannot exceed n" in capsys.readouterr().err
    missing = str(tmp_path / "absent.json")
    assert cli.main(["--config", missing]) == 2
    capsys.readouterr()
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert cli.main(["--config", str(not_json)]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()
    good = write_config(tmp_path, GENERIC)
    assert cli.main(["--config", good, "--check", "no-such"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("target", ["missing/report.json", ""])
def test_unwritable_report_path_exits_two(tmp_path, capsys, where, target):
    # a file in a missing directory, and the directory tmp_path itself
    out = str(tmp_path / target)
    extra = {"output": out} if where == "config" else {}
    path = write_config(tmp_path, {**GENERIC, "checks": ["rtt"], **extra})
    argv = ["--config", path] + (["--output", out] if where == "flag" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("yangian: cannot write report: ")
    assert out in err and "Traceback" not in err


def test_main_check_override_and_list(tmp_path, capsys):
    path = write_config(tmp_path, {**GENERIC, "checks": ["braid"]})
    code = cli.main(["--config", path, "--check", "rtt", "--check",
                     "hw-scalar"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in data["checks"]] == ["rtt", "hw-scalar"]
    assert cli.main(["--list-checks"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert any(c["name"] == "rtt" for c in listing)


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["--bogus"])
        assert exc.value.code == 2
        assert cli.main([]) == 2
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("usage: yangian [-h] [--config PATH]")
    # a --check list from one call does not carry over to the next
    path = write_config(tmp_path, {**GENERIC, "checks": ["rtt"]})
    assert cli.main(["--config", path, "--check", "hw-scalar"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in data["checks"]] == ["rtt"]


# ---------------------------------------------------------------------------
# config fuzzer: every valid config ends in bounded time with exit 0 or 1


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler swallows it."""


def _smallest(start, over):
    """The least k >= start with over(k)."""
    k = start
    while not over(k):
        k += 1
    return k


def _generic_mu(draw, m):
    residues = draw(st.permutations(range(1, 7)))[:m]
    return [f"{r + 7 * draw(st.integers(-3, 3))}/7" for r in residues]


CHECKS = [c["name"] for c in list_checks()]
OPERATOR_CHECKS = ["e-relations", "zeta-hom", "alpha-series"]


@st.composite
def small_configs(draw):
    """A valid config small enough to finish in well under a second."""
    theta = draw(st.sampled_from((1, -1)))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(0, m))
    top = 2 if theta == 1 else n
    cfg = {"theta": theta, "n": n, "p": p, "q": m - p,
           "nu": draw(st.lists(st.integers(0, top), min_size=m, max_size=m)),
           "word": draw(st.lists(st.integers(1, m - 1), max_size=3)
                        if m > 1 else st.just([])),
           "truncation": draw(st.integers(1, 4)),
           "order": draw(st.integers(2, 4)),
           "checks": draw(st.lists(st.sampled_from(CHECKS), min_size=1,
                                   max_size=4, unique=True))}
    if draw(st.booleans()):
        cfg["mu"] = _generic_mu(draw, m)
    else:
        cfg["mu"] = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        cfg["allow_resonant"] = True
    return cfg


@st.composite
def over_budget_configs(draw):
    """A valid config just over one budget, run with checks that meet it."""
    kind = draw(st.sampled_from(("module", "rtt", "hom", "basis",
                                 "canonical", "series", "step")))
    if kind == "module":
        # one factor with n * dim just over MODULE_MAX_SIZE, alone or
        # followed by a degree-1 factor so that hw-scalar swaps them
        n = draw(st.integers(2, 4))
        d = _smallest(1, lambda d: n * math.comb(n + d - 1, d) > 1024)
        cfg = {"theta": 1, "n": n, "nu": [d] + [1] * draw(st.integers(0, 1))}
        checks = CHECKS
    elif kind == "rtt":
        # n = 2, dim 196 to 256: n^2 dim over RTT_MAX_SIZE, n dim under 1024
        d = draw(st.integers(13, 15))
        cfg = {"theta": 1, "n": 2, "nu": [d, d]}
        checks = ["rtt"]
    elif kind == "hom":
        # dims 60, 36 and 49: 204, 220 and 231 unknowns after the diagonal
        # coefficient pairs, just over HOM_SPACE_MAX_UNKNOWNS
        n, nu = draw(st.sampled_from(((3, [2, 3]), (2, [2, 2, 3]),
                                      (2, [6, 6]))))
        cfg = {"theta": 1, "n": n, "nu": nu}
        checks = ["kernel-quotient"]
    elif kind == "basis":
        # one block of n variables, C(n + t, t) just over BASIS_MAX_SIZE
        t = draw(st.integers(3, 6))
        n = _smallest(2, lambda n: math.comb(n + t, t) > 20000)
        cfg = {"theta": 1, "n": n, "nu": [1], "truncation": t}
        checks = OPERATOR_CHECKS
    elif kind == "canonical":
        # 13 or 14 exterior variables: 6 (m n)^2 2^(m n) over WORK_MAX
        m = draw(st.sampled_from((1, 2)))
        cfg = {"theta": -1, "n": 13 if m == 1 else 7, "nu": [1] * m}
        checks = OPERATOR_CHECKS
    elif kind == "step":
        # two factors whose swap has pair_dim^3 n just over STEP_MAX_WORK;
        # the other budgets hold, so any check may run
        n = draw(st.integers(2, 3))
        d = _smallest(1, lambda d: math.comb(n + d - 1, d) ** 6 * n
                      > 4_000_000)
        cfg = {"theta": 1, "n": n, "nu": [d, d]}
        checks = CHECKS
    else:
        # the least series order over WORK_MAX for m factors
        m = draw(st.integers(1, 3))
        order = _smallest(2, lambda k: (math.comb(k + 2, 2) - 1)
                          * (m ** 2 + m ** 4) * m > 6_000_000)
        cfg = {"theta": draw(st.sampled_from((1, -1))), "n": 1,
               "nu": [1] * m, "order": order}
        checks = ["alpha-series", "appendix-x-identities"]
    m = len(cfg["nu"])
    p = draw(st.integers(0, m))
    return {**cfg, "p": p, "q": m - p, "mu": _generic_mu(draw, m),
            "checks": draw(st.lists(st.sampled_from(checks), min_size=1,
                                    max_size=4, unique=True))}


def _run_within_10s(cfg):
    """cli.main on cfg under a 10 s alarm: (exit code, report)."""
    def alarm(signum, frame):
        raise _Timeout(f"config ran over 10 s: {cfg}")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(10)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            out = Path(tmp) / "report.json"
            path.write_text(json.dumps(cfg))
            code = cli.main(["--config", str(path), "--output", str(out)])
            return code, json.loads(out.read_text())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_configs(), over_budget_configs()))
def test_valid_configs_finish_with_a_report(cfg):
    code, report = _run_within_10s(cfg)
    assert code == (0 if report["status"] == "pass" else 1)
    for record in report["checks"]:
        if record["status"] == "error":
            assert re.fullmatch(r"\w+: \S.*", record["details"]["error"])


@pytest.mark.parametrize("m,order", [(1, 2447), (2, 546), (3, 209)])
def test_series_identities_at_the_budget_edge(m, order, capsys):
    # the largest orders whose series count, at rep_dim m, meets WORK_MAX;
    # a check one pair of orders at a time ran past the alarm at m = 1, 2
    count = hd._series_identities
    assert count(m, order) * m <= hd.WORK_MAX < count(m, order + 1) * m
    code, report = _run_within_10s({
        "theta": 1, "n": 1, "p": 0, "q": m, "nu": [1] * m,
        "mu": [f"{b + 1}/7" for b in range(m)], "order": order,
        "checks": ["appendix-x-identities"]})
    assert code == 0
    assert report["checks"][0]["details"]["checked"] == count(m, order)
    capsys.readouterr()


def test_pair_dim_100_swap_is_admitted_and_passes(capsys):
    # n = 2, nu = (9, 9): pair dim 100, work 2.0e6, under STEP_MAX_WORK;
    # refused before the span was kept as its own echelon form
    code, report = _run_within_10s({
        "theta": 1, "n": 2, "p": 1, "q": 1, "mu": ["1/7", "12/7"],
        "nu": [9, 9], "checks": ["hw-scalar"]})
    assert code == 0
    record = report["checks"][0]
    assert record["status"] == "pass"
    assert record["details"]["scalar"] == record["details"]["closed_form"]
    capsys.readouterr()


def test_resonant_dim_27_kernel_quotient_is_admitted_and_passes(capsys):
    # 729 unknowns, 93 after the diagonal coefficient pairs, within
    # HOM_SPACE_MAX_UNKNOWNS; kernel 3 and an irreducible quotient of dim 24
    code, report = _run_within_10s({
        "theta": 1, "n": 3, "p": 1, "q": 2, "mu": ["1/7", "-4/7", "8/7"],
        "nu": [1, 1, 1], "allow_resonant": True,
        "checks": ["kernel-quotient"]})
    assert code == 0
    record = report["checks"][0]
    assert record["status"] == "pass"
    assert record["details"]["kernel_dim"] == 3
    assert record["details"]["quotient_dim"] == 24
    assert record["details"]["quotient_irreducible"] is True
    capsys.readouterr()
