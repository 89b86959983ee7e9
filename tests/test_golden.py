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
Python ints only), and an `hw-scalar` swap on five-digit prime
denominators whose 85-bit map the module-map certificate checked on
Python ints (generated then; its `braid` record is the error of a
two-factor config).  A refactor
that changes a verdict, a witness or the serialization shows up here byte
for byte.
"""

import json
import sys
from pathlib import Path

import pytest

from yangian import cli, linalg

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


# Python-int operands of int_matmul whose entries all fit below 2^53, over
# every golden config: none, as every integer matrix, the column slices of
# `intertwine._cyclic_span` included, is in the form of
# `linalg.stored_ints`.  The count is the same on every host, so code that
# falls back to Python ints where int64 would do shows here.
SMALL_PYTHON_INT_OPERANDS = 0

# `linalg.stored_ints` calls on object arrays over every golden config:
# each tries an int64 cast and scans for the maximum.  40 of the 87 hold an
# entry past 2^53; among the other 47 are 24 echelon forms and nullspaces
# rebuilt by CRT from several primes, 9 column slices in
# `intertwine._cyclic_span`, 5 Vandermonde matrices of the RTT grid and 4
# scalar modules.  Fock operators and distinguished vectors are filled in
# int64, so they add none.
OBJECT_STORES = 87


def _run_goldens(monkeypatch, tmp_path, name, counted):
    """Every golden config, with the package's bindings of the linalg
    function `name` replaced by counted."""
    kernel = getattr(linalg, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("yangian") and getattr(
                module, name, None) is kernel:
            monkeypatch.setattr(module, name, counted(kernel))
    for stem in NAMES:
        cli.main(["--config", str(GOLDEN / f"{stem}.config.json"),
                  "--output", str(tmp_path / "report.json")])


def test_goldens_hand_int_matmul_few_small_python_int_operands(
        monkeypatch, tmp_path, capsys):
    seen = []

    def counted(kernel):
        def product(a, b):
            seen.extend(x.dtype == object
                        and all(abs(v) < 2 ** 53 for v in x.flat)
                        for x in (a, b))
            return kernel(a, b)
        return product

    _run_goldens(monkeypatch, tmp_path, "int_matmul", counted)
    assert seen and sum(seen) <= SMALL_PYTHON_INT_OPERANDS
    capsys.readouterr()


def test_goldens_store_few_object_arrays(monkeypatch, tmp_path, capsys):
    seen = []

    def counted(kernel):
        def store(ints):
            seen.append(ints.dtype == object)
            return kernel(ints)
        return store

    _run_goldens(monkeypatch, tmp_path, "stored_ints", counted)
    assert seen and sum(seen) <= OBJECT_STORES
    capsys.readouterr()
