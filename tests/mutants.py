"""Mutation checks for the certificates and the exact fast paths.

Each mutant breaks one check of the program in a throwaway copy and names
the tests that must catch it.  Run from anywhere, with the test extra
installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

For each mutant the runner copies `src/`, `tests/` and `pyproject.toml` to
a temporary directory (the tests and the pytest configuration come along
so that `pythonpath = ["src"]` and the hypothesis example database resolve
inside the copy), replaces one exact snippet, which must occur exactly
once in its file, and runs the named pytest nodes there with
`-p no:cacheprovider`, a fixed `--hypothesis-seed` and `PYTHONPATH` set to
the copy's `src/`.  A mutant is caught only when pytest exits 1 (tests
failed); exits 2-5 (interrupted, internal, usage or collection errors) do
not count.  A snippet that no longer occurs exactly once fails the run and
names the mutant, so a refactor of a mutated line must update its mutant.
The exit code is 0 when every mutant is caught, else 1.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261019


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str        # relative to src/yangian
    old: str         # must occur exactly once
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant("compose-word-row-grouping", "intertwine.py",
           "left, pair = math.prod(dims[:a - 1]), dims[a - 1] * dims[a]",
           "left, pair = math.prod(dims[a + 1:]), dims[a - 1] * dims[a]",
           ("tests/test_intertwine.py::"
            "test_compose_word_matches_hom_space_reference",)),
    Mutant("first-defect-bound-without-c", "intertwine.py",
           "np.abs(fb).sum(axis=0).max() + np.abs(fc).sum(axis=1).max()",
           "np.abs(fb).sum(axis=0).max()",
           ("tests/test_intertwine.py::"
            "test_certificate_matches_the_two_product_reference",
            "tests/test_intertwine.py::"
            "test_hom_space_matches_the_whole_denominator_reference")),
    Mutant("certificate-skipped", "intertwine.py",
           "    keys, bs, cs = coefficient_pairs(src, tgt)\n"
           "    p, defect, _ = _first_defect(",
           "    return None\n"
           "    keys, bs, cs = coefficient_pairs(src, tgt)\n"
           "    p, defect, _ = _first_defect(",
           ("tests/test_intertwine.py::"
            "test_certificate_matches_the_two_product_reference",)),
    Mutant("defect-chunk-uncapped", "intertwine.py",
           "per = max(1, _DEFECT_CHUNK // (k * d2 * d1))",
           "per = len(pairs)",
           ("tests/test_intertwine.py::"
            "test_hom_space_at_the_budget_edge_stays_small",)),
    Mutant("grading-from-one-diagonal-side", "intertwine.py",
           "diagonal = ~((bs[:, ~np.eye(d1, dtype=bool)] != 0).any(axis=1)\n"
           "                 | (cs[:, ~np.eye(d2, dtype=bool)] != 0).any(axis=1))",
           "diagonal = ~(bs[:, ~np.eye(d1, dtype=bool)] != 0).any(axis=1)",
           ("tests/test_intertwine.py::"
            "test_hom_space_matches_the_whole_denominator_reference",)),
    Mutant("kernel-stability-first-vector-only", "intertwine.py",
           "int_matmul(moved.reshape(-1, dim), kernel.data)",
           "int_matmul(moved.reshape(-1, dim), kernel.data[:, :1])",
           ("tests/test_intertwine.py::"
            "test_kernel_quotient_matches_adapted_basis_reference",)),
    Mutant("x-identities-always-float64", "hd.py",
           "    if cast is not None and (max(4, 2 * m) * dim\n"
           "                             * np.abs(cast).max(initial=0) ** 2\n"
           "                             < FLOAT64_EXACT_LIMIT):",
           "    if cast is not None:",
           ("tests/test_hd.py::test_x_identities_match_reference",)),
    Mutant("int-matmul-gate-at-le", "linalg.py",
           "            < FLOAT64_EXACT_LIMIT):",
           "            <= FLOAT64_EXACT_LIMIT):",
           ("tests/test_linalg.py::"
            "test_int_matmul_matches_object_matmul_at_the_float64_edge",)),
    Mutant("pseudo-division-quotient-sign", "linalg.py",
           "q = quo[k] = top // g if lead > 0 else -(top // g)",
           "q = quo[k] = -(top // g) if lead > 0 else top // g",
           ("tests/test_linalg.py::test_poly_divmod_roundtrip",)),
    Mutant("fujiwara-bound-halved", "linalg.py",
           "return 2 * max(terms + [_ceil_root(-(-abs(g[0]) // 2), d)])",
           "return max(terms + [_ceil_root(-(-abs(g[0]) // 2), d)])",
           ("tests/test_linalg.py::test_rational_roots_zero_root_and_repeats",
            "tests/test_linalg.py::test_rational_roots_of_split_polynomials")),
    Mutant("rtt-first-residue-prime-only", "verify.py",
           "for p, res in zip(primes, residues):",
           "for p, res in zip(primes[:1], residues):",
           ("tests/test_verify.py::test_rtt_failure_missed_by_first_prime",)),
    Mutant("rtt-swapped-pair-sign", "verify.py",
           "(bad_vu, comm.transpose(_SWAP) + cross)",
           "(bad_vu, comm.transpose(_SWAP) - cross)",
           ("tests/test_verify.py::test_rtt_atoms",)),
    Mutant("odd-parity-flipped", "fock.py",
           "if sum(exps[:v]) & 1:",
           "if not sum(exps[:v]) & 1:",
           ("tests/test_fock.py::test_anticommuting_signs",)),
    Mutant("zeta-unit-at-operator-zero", "hd.py",
           "ones, unit = np.ones_like(a), np.full_like(a, m * m)",
           "ones, unit = np.ones_like(a), np.full_like(a, 0)",
           ("tests/test_hd.py::test_zeta_homomorphism",)),
    Mutant("compiled-int64-without-bound", "compiled.py",
           "self.dtype = np.int64 if bound < 2 ** 63 else object",
           "self.dtype = np.int64",
           ("tests/test_hd.py::test_int64_bound_both_sides",)),
)


def _copy(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run(mutant: Mutant) -> tuple[str, float]:
    """The verdict on one mutant, "caught", "missed (exit N)" or "stale
    snippet (N occurrences)", and the seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / "src" / "yangian" / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"stale snippet ({count} occurrences)", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", f"--hypothesis-seed={SEED}", *mutant.nodes],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    verdict = "caught" if code == 1 else f"missed (exit {code})"
    return verdict, time.perf_counter() - start


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    missed = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict, seconds = run(mutant)
        print(f"{mutant.name:40s} {verdict:28s} {seconds:6.1f} s", flush=True)
        if verdict != "caught":
            missed.append(mutant.name)
    print(f"{len(missed)} not caught, {time.perf_counter() - start:.1f} s "
          "in all" + (f": {', '.join(missed)}" if missed else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
