"""Golden reports: fixed configs whose reports must not change.

Each `tests/data/golden/NAME.config.json` has its report, with every
`time` field stripped, in `NAME.report.json`.  Together the configs run
all registered checks, a generic and a resonant `kernel-quotient`, the
resonant dim-27 `kernel-quotient` (kernel 3, irreducible quotient 24,
generated before `hom_space` solved on the weight blocks), the theta = -1
patterns, a budget-error record, a swap of pair dim 64 and the dim-512
highest-weight checks at n dim = MODULE_MAX_SIZE (generated before the
modular elimination), and a dim-16 `rtt` whose bound D is just under 2^63
(generated while it still ran on three residue primes), and a dim-16
`rtt`, `hw-eigenvalues` and `drinfeld` on five-digit prime denominators
whose tensor chain leaves int64 at its last product, with partial
products of 29, 43 and 58 bits (generated while modules were stored as
Python ints only).  A refactor
that changes a verdict, a witness or the serialization shows up here byte
for byte.
"""

import json
from pathlib import Path

import pytest

from yangian import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = sorted(p.name[:-len(".config.json")]
               for p in GOLDEN.glob("*.config.json"))


def test_golden_configs_cover_every_check():
    ran = {name for stem in NAMES
           for name in json.loads((GOLDEN / f"{stem}.config.json")
                                  .read_text())["checks"]}
    assert ran == {spec["name"] for spec in cli.list_checks()}


@pytest.mark.parametrize("stem", NAMES)
def test_golden_report_is_byte_identical(stem, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["--config", str(GOLDEN / f"{stem}.config.json"),
                     "--output", str(out)])
    report = json.loads(out.read_text())
    for record in report["checks"]:
        record.pop("time")
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"{stem}.report.json").read_text()
    assert code == (0 if report["status"] == "pass" else 1)
    capsys.readouterr()
