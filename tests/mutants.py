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
    Mutant("certificate-bound-without-c", "intertwine.py",
           "np.abs(fb).sum(axis=0).max() + np.abs(fc).sum(axis=1).max()",
           "np.abs(fb).sum(axis=0).max()",
           ("tests/test_intertwine.py::"
            "test_certificate_matches_the_two_product_reference",)),
    Mutant("certificate-skipped", "intertwine.py",
           "    keys, bs, cs = coefficient_pairs(src, tgt)\n"
           "    a = mat.data\n",
           "    return None\n"
           "    keys, bs, cs = coefficient_pairs(src, tgt)\n"
           "    a = mat.data\n",
           ("tests/test_intertwine.py::"
            "test_certificate_matches_the_two_product_reference",)),
    Mutant("defect-chunk-uncapped", "intertwine.py",
           "per = max(1, _DEFECT_CHUNK // (d2 * d1))",
           "per = len(keys)",
           ("tests/test_intertwine.py::"
            "test_certificate_at_dim_81_stays_small",)),
    Mutant("hom-chunk-uncapped", "intertwine.py",
           "per = max(1, _DEFECT_CHUNK // (d2 * d1 * len(unknowns)))",
           "per = len(pairs)",
           ("tests/test_intertwine.py::"
            "test_hom_space_at_the_budget_edge_stays_small",)),
    Mutant("hom-rows-c-overwrites-b", "intertwine.py",
           "np.subtract.at(rows, (row[len(b_rows):], c_at), c_val)",
           "rows[row[len(b_rows):], c_at] = -c_val",
           ("tests/test_intertwine.py::"
            "test_hom_space_matches_the_whole_denominator_reference",)),
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
           "        if bound < FLOAT64_EXACT_LIMIT:",
           "        if bound <= FLOAT64_EXACT_LIMIT:",
           ("tests/test_linalg.py::"
            "test_int_matmul_matches_object_matmul_at_the_float64_edge",)),
    Mutant("int-matmul-int64-for-mixed-pair", "linalg.py",
           "return fa if a.dtype == b.dtype == np.int64 else fa.astype(object)",
           "return fa if np.int64 in (a.dtype, b.dtype) else fa.astype(object)",
           ("tests/test_linalg.py::"
            "test_int_matmul_int64_result_only_for_int64_pairs_under_the_gate",)),
    Mutant("num64-gate-at-le", "modules.py",
           "        if cast is not None and (np.abs(cast).max(initial=0)\n"
           "                                 < FLOAT64_EXACT_LIMIT):",
           "        if cast is not None and (np.abs(cast).max(initial=0)\n"
           "                                 <= FLOAT64_EXACT_LIMIT):",
           ("tests/test_modules.py::test_num64_gate_at_the_float64_limit",)),
    Mutant("fock-int64-gate-without-shift", "modules.py",
           "scale * (degree + 1) + abs(shift) < FLOAT64_EXACT_LIMIT",
           "scale * (degree + 1) < FLOAT64_EXACT_LIMIT",
           ("tests/test_modules.py::"
            "test_fock_module_fills_int64_only_below_the_limit",)),
    Mutant("echelon-identity-unchecked", "linalg.py",
           "        if int_matmul(ints, null).any():\n"
           "            continue\n",
           "",
           ("tests/test_linalg.py::"
            "test_modular_elimination_matches_bareiss_reference",
            "tests/test_linalg.py::"
            "test_certificate_rejects_forged_echelon_forms")),
    Mutant("echelon-shape-unchecked", "linalg.py",
           "        if num[np.greater.outer(pivots, free)].any():\n"
           "            continue\n",
           "",
           ("tests/test_linalg.py::"
            "test_certificate_rejects_forged_echelon_forms",)),
    Mutant("elimination-int64-copy-without-bound", "linalg.py",
           "if cast is not None and np.abs(cast).max(initial=0) < FLOAT64_EXACT_LIMIT:",
           "if cast is not None:",
           ("tests/test_linalg.py::"
            "test_modular_elimination_matches_bareiss_reference",)),
    Mutant("unlucky-first-prime-kept", "linalg.py",
           "if best is None or key < best:",
           "if best is None:",
           ("tests/test_linalg.py::"
            "test_primes_are_added_until_the_certificate_holds",)),
    Mutant("pivot-order-ignored", "linalg.py",
           "key = (-len(pivots), pivots)",
           "key = (-len(pivots), [])",
           ("tests/test_linalg.py::"
            "test_primes_are_added_until_the_certificate_holds",)),
    Mutant("pseudo-division-quotient-sign", "linalg.py",
           "q = quo[k] = top // g if lead > 0 else -(top // g)",
           "q = quo[k] = -(top // g) if lead > 0 else top // g",
           ("tests/test_linalg.py::test_poly_divmod_roundtrip",)),
    Mutant("lifting-bound-without-factor-2", "linalg.py",
           "bound = 2 * (1 + max(map(abs, g)))",
           "bound = 1 + max(map(abs, g))",
           ("tests/test_linalg.py::"
            "test_rational_roots_recovered_with_multiplicity",
            "tests/test_linalg.py::test_rational_roots_of_split_polynomials",
            "tests/test_verify.py::test_drinfeld_plain_powers",
            "tests/test_verify.py::test_drinfeld_tilde_strings")),
    Mutant("lifting-prime-not-checked-simple", "linalg.py",
           "if all(_int_eval(dg, y) % prime for y in starts):",
           "if True:",
           ("tests/test_linalg.py::test_rational_roots_of_split_polynomials",
            "tests/test_verify.py::test_drinfeld_twist_invariance",
            "tests/test_verify.py::test_ratio_to_drinfeld_poly_errors")),
    Mutant("rtt-first-residue-prime-only", "verify.py",
           "for p, (vert, horiz, shift, (flt, prods)) in zip(moduli, stacks):",
           "for p, (vert, horiz, shift, (flt, prods)) in zip(moduli[:1], stacks):",
           ("tests/test_verify.py::test_rtt_failure_missed_by_first_prime",)),
    Mutant("rtt-exact-gate-without-dim", "verify.py",
           "shift = (0 if dim * top * top < FLOAT64_EXACT_LIMIT",
           "shift = (0 if top * top < FLOAT64_EXACT_LIMIT",
           ("tests/test_verify.py::test_rtt_at_the_exact_tier_edge",)),
    Mutant("rtt-one-piece-below-int64-gate", "verify.py",
           "        shift = (0 if dim * top * top < FLOAT64_EXACT_LIMIT\n"
           "                 else (top.bit_length() + 1) // 2)",
           "        shift = 0",
           ("tests/test_verify.py::test_rtt_at_the_exact_tier_edge",)),
    Mutant("rtt-int64-gate-at-2-64", "verify.py",
           "if bound < 2 ** 63:",
           "if bound < 2 ** 64:",
           ("tests/test_verify.py::test_rtt_at_the_exact_tier_edge",)),
    Mutant("rtt-limb-cross-unshifted", "verify.py",
           "            spare <<= shift\n",
           "",
           ("tests/test_verify.py::test_rtt_pairs_match_component_reference",)),
    Mutant("rtt-residue-cast-without-bound", "verify.py",
           "    if top < 2 ** 63:\n"
           "        ints = ints.astype(np.int64, copy=False)",
           "    if True:\n"
           "        ints = ints.astype(np.int64, copy=False)",
           ("tests/test_verify.py::test_rtt_at_the_exact_tier_edge",)),
    Mutant("rtt-swapped-pair-sign", "verify.py",
           "(np.add, comm.transpose(_SWAP))",
           "(np.subtract, comm.transpose(_SWAP))",
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
    Mutant("compiled-pair-key-without-left", "compiled.py",
           "pair = left[ti, tj] * self.nops + right[ti, tj]",
           "pair = right[ti, tj]",
           ("tests/test_hd.py::test_e_relations_exhaustive_small",)),
    Mutant("atom-maps-chained-leftmost-first", "compiled.py",
           "for atom in self.word_atoms.T[::-1, :, None] if len(src) else ():",
           "for atom in self.word_atoms.T[:, :, None] if len(src) else ():",
           ("tests/test_hd.py::test_word_maps_match_apply_word",)),
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
