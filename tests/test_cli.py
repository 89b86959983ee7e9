"""Tests for the config-driven command line and its report contract."""

import json
from fractions import Fraction

import pytest

from yangian import cli
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
    # four degree-1 factors with n = 2 span dim 16: 256 unknowns per map
    path = write_config(tmp_path, {
        "theta": 1, "n": 2, "p": 0, "q": 4, "nu": [1, 1, 1, 1],
        "mu": ["1/7", "2/7", "3/7", "4/7"], "checks": ["kernel-quotient"]})
    out = tmp_path / "report.json"
    assert cli.main(["--config", path, "--output", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["status"] == "error"
    assert "256 unknowns, over the budget" in record["details"]["error"]
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
