"""Config-driven command line: build modules, run exact checks, emit reports.

A run is described by a JSON config naming the module parameters and the
checks to execute.  Every check works in exact rational arithmetic; the
report serializes rationals as "a/b" strings and polynomials as coefficient
lists (lowest degree first), so reports are byte-identical across runs for
the same config (timing fields excepted).

Exit codes: 0 all checks pass, 1 some check fails or errors, 2 malformed
config or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from typing import Callable

from . import hd
from .intertwine import (
    Intertwiner,
    check_hw_image,
    compose_word,
    hom_intertwiner,
    irreducibility_test,
    kernel_quotient,
    modules_isomorphic,
    word_permutation,
)
from .linalg import Poly, RatFunc
from .modules import (
    ModuleParams,
    PatternFactor,
    YangianModule,
    distinguished_vector,
    fock_module,
    omega_module,
    omega_prime_module,
    pattern_module,
    permute_pattern,
    resonant_pair,
    run_memo,
    source_pattern,
    tensor_module,
)
from .verify import (
    check_rtt,
    closed_form_eigenvalues,
    drinfeld_polynomials,
    highest_weight_vectors,
    hw_eigenvalues,
)


class ConfigError(ValueError):
    """Malformed configuration; every message names the offending field."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    theta: int
    n: int
    p: int
    q: int
    mu: tuple[Fraction, ...]
    nu: tuple[int, ...]
    word: tuple[int, ...] = ()
    checks: tuple[str, ...] = ("rtt",)
    truncation: int = 6
    order: int = 4
    output: str | None = None
    allow_resonant: bool = False

    @property
    def factor_count(self) -> int:
        return self.p + self.q


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: not a rational 'a/b' string: {exc}")
    raise ConfigError(f"{where}: expected an integer or an 'a/b' string")


def _require_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw mapping into a RunConfig with field-level diagnostics."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"config: unknown fields {unknown}")
    for name in ("theta", "n", "p", "q", "mu", "nu"):
        if name not in data:
            raise ConfigError(f"{name}: required field is missing")

    theta = _require_int(data["theta"], "theta")
    if theta not in (1, -1):
        raise ConfigError("theta: must be +1 or -1")
    n = _require_int(data["n"], "n", minimum=1)
    p = _require_int(data["p"], "p", minimum=0)
    q = _require_int(data["q"], "q", minimum=0)
    m = p + q

    if not isinstance(data["mu"], list):
        raise ConfigError("mu: expected a list of rationals")
    mu = tuple(_parse_rational(v, f"mu[{i}]") for i, v in enumerate(data["mu"]))
    if not isinstance(data["nu"], list):
        raise ConfigError("nu: expected a list of nonnegative integers")
    nu = tuple(_require_int(v, f"nu[{i}]", minimum=0)
               for i, v in enumerate(data["nu"]))
    if len(mu) != m:
        raise ConfigError(f"mu: expected p+q = {m} entries, got {len(mu)}")
    if len(nu) != m:
        raise ConfigError(f"nu: expected p+q = {m} entries, got {len(nu)}")

    allow_resonant = data.get("allow_resonant", False)
    if not isinstance(allow_resonant, bool):
        raise ConfigError("allow_resonant: expected a boolean")
    pair = None if allow_resonant else resonant_pair(mu)
    if pair is not None:
        raise ConfigError(
            "genericity violated: mu_a - mu_b in Z for "
            f"(a, b) = ({pair[0] + 1}, {pair[1] + 1}); set allow_resonant "
            "to work with resonant parameters")

    word_raw = data.get("word", [])
    if not isinstance(word_raw, list):
        raise ConfigError("word: expected a list of positions")
    word = tuple(_require_int(v, f"word[{i}]", minimum=1)
                 for i, v in enumerate(word_raw))
    for i, a in enumerate(word):
        if a > m - 1:
            raise ConfigError(
                f"word[{i}]: position {a} out of range for {m} slots")

    checks_raw = data.get("checks", ["rtt"])
    if not isinstance(checks_raw, list) or not checks_raw:
        raise ConfigError("checks: expected a nonempty list of check names")
    checks = []
    for i, name in enumerate(checks_raw):
        if not isinstance(name, str):
            raise ConfigError(f"checks[{i}]: expected a check name string")
        if name not in _REGISTRY:
            known = ", ".join(spec.name for spec in _REGISTRY.values())
            raise ConfigError(f"checks[{i}]: unknown check {name!r}; "
                              f"known checks: {known}")
        checks.append(name)

    truncation = _require_int(data.get("truncation", 6), "truncation", 1)
    order = _require_int(data.get("order", 4), "order", 2)
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output: expected a path string")

    return RunConfig(theta=theta, n=n, p=p, q=q, mu=mu, nu=nu, word=word,
                     checks=tuple(checks), truncation=truncation, order=order,
                     output=output, allow_resonant=allow_resonant)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready echo of a config (rationals as "a/b").

    Only fields that determine check results are echoed; the output path
    is plumbing and never changes a report.
    """
    return {
        "theta": cfg.theta,
        "n": cfg.n,
        "p": cfg.p,
        "q": cfg.q,
        "mu": [_frac_str(x) for x in cfg.mu],
        "nu": list(cfg.nu),
        "word": list(cfg.word),
        "checks": list(cfg.checks),
        "truncation": cfg.truncation,
        "order": cfg.order,
        "allow_resonant": cfg.allow_resonant,
    }


# ---------------------------------------------------------------------------
# serialization helpers


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _poly_coeffs(poly: Poly) -> list[str]:
    """Each coefficient num / den of poly as "a/b" in lowest terms."""
    den = poly.den
    return [f"{c // g}/{den // g}" for c in poly.num for g in (gcd(c, den),)]


def _ratfunc_dict(f: RatFunc) -> dict:
    return {"num": _poly_coeffs(f.num), "den": _poly_coeffs(f.den)}


# ---------------------------------------------------------------------------
# checks


class CheckError(RuntimeError):
    """A check could not run on this configuration."""


class _Shared:
    """Objects that several checks of one run use, each built on first use
    and dropped with the run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._composed: dict[tuple[int, ...], Intertwiner] = {}

    @cached_property
    def realization(self) -> hd.OperatorRealization:
        cfg = self.cfg
        if cfg.factor_count < 1:
            raise CheckError("operator checks need at least one factor")
        return hd.realize(cfg.theta, cfg.factor_count, cfg.n, cfg.p,
                          max_degree=cfg.truncation)

    @cached_property
    def series(self) -> hd.XSeries:
        cfg = self.cfg
        return hd.x_series(cfg.theta, cfg.factor_count, cfg.order)

    @cached_property
    def params(self) -> ModuleParams:
        cfg = self.cfg
        try:
            return ModuleParams(cfg.theta, cfg.n, cfg.p, cfg.q,
                                list(cfg.mu), list(cfg.nu),
                                allow_resonant=cfg.allow_resonant)
        except ValueError as exc:
            raise ConfigError(str(exc))

    @cached_property
    def factors(self) -> list[PatternFactor]:
        return source_pattern(self.params)

    @cached_property
    def source_module(self) -> YangianModule:
        return pattern_module(self.params, self.factors)

    def composed(self, word: tuple[int, ...]) -> Intertwiner:
        """The intertwiner composed along word, once per run."""
        if word not in self._composed:
            self._composed[word] = compose_word(self.params, word)
        return self._composed[word]

    @cached_property
    def eigenvalues(self) -> list[RatFunc]:
        """The T_ii(u) eigenvalues of the source module on its
        distinguished vector."""
        return hw_eigenvalues(self.source_module,
                              distinguished_vector(self.params, self.factors))


def _default_word(m: int) -> tuple[int, ...]:
    """Reduced word for the full reversal of m slots."""
    return tuple(a for k in range(1, m) for a in range(k, 0, -1))


def _factor_label(f) -> str:
    return f"{f.kind}:{f.degree}@{_frac_str(f.param)}"


def _check_rtt(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    factors, mod = shared.factors, shared.source_module
    rep = check_rtt(mod)
    details = {
        "dim": mod.dim,
        "den_degree": rep.den_degree,
        "factors": [_factor_label(f) for f in factors],
        "sample_points_u": list(rep.points_u),
        "sample_points_v": list(rep.points_v),
    }
    if rep.failure:
        details["failure"] = {k: str(v) for k, v in rep.failure.items()}
    return rep.ok, details


def _check_isomorphisms(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    if cfg.factor_count < 1:
        raise CheckError("isomorphisms check needs at least one factor")
    n, z = cfg.n, cfg.mu[0]
    degree = max(cfg.nu[0], 1)
    tilde = fock_module(cfg.theta, n, "tilde", z, degree)
    twist = omega_prime_module(n, z) if cfg.theta == 1 else omega_module(n, -z)
    prod = tensor_module(twist, fock_module(cfg.theta, n, "prime", z, degree))
    entrywise = tilde.equal_entrywise(prod)
    iso = modules_isomorphic(tilde, prod) is not None
    plain = fock_module(cfg.theta, n, "plain", z, 1)
    omega = omega_module(n, z)
    flip = modules_isomorphic(tensor_module(omega, plain),
                              tensor_module(plain, omega)) is not None
    details = {
        "dim": tilde.dim,
        "degree": degree,
        "tilde_vs_twisted_prime_entrywise": entrywise,
        "tilde_vs_twisted_prime_isomorphic": iso,
        "scalar_factor_commutes": flip,
    }
    return entrywise and iso and flip, details


def _check_hw_eigenvalues(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    params, mod = shared.params, shared.source_module
    computed = shared.eigenvalues
    closed = closed_form_eigenvalues(params)
    matches = [computed[i] == closed[i] for i in range(params.n)]
    details = {
        "hw_space_dim": highest_weight_vectors(mod).ncols,
        "computed": [_ratfunc_dict(f) for f in computed],
        "closed_form": [_ratfunc_dict(f) for f in closed],
        "matches": matches,
    }
    return all(matches), details


def _check_drinfeld(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    eigen = shared.eigenvalues
    polys = drinfeld_polynomials(eigen)
    monic = all(p.num[-1] == p.den for p in polys)
    details = {
        "polynomials": [_poly_coeffs(p) for p in polys],
        "eigenvalues": [_ratfunc_dict(f) for f in eigen],
        "monic": monic,
    }
    return monic, details


def _check_hw_scalar(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    params = shared.params
    word = cfg.word or _default_word(cfg.factor_count)
    intw = shared.composed(word)
    report = check_hw_image(intw, params)
    details = {
        "word": list(word),
        "scalar": _frac_str(intw.hw_scalar),
        "closed_form": _frac_str(report.closed_form),
        "factors": [{"pair": [z.eta[0] + 1, z.eta[1] + 1],
                     "value": _frac_str(z.value),
                     "case": z.case} for z in report.factors],
    }
    return report.ok and intw.hw_scalar == report.closed_form, details


def _check_braid(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    if cfg.factor_count != 3:
        raise CheckError("braid check needs exactly three factors")
    left = shared.composed((1, 2, 1))
    right = shared.composed((2, 1, 2))
    equal = left.matrix == right.matrix
    details = {
        "dim": left.source.dim,
        "matrices_equal": equal,
        "scalar": _frac_str(left.hw_scalar),
        "scalars_equal": left.hw_scalar == right.hw_scalar,
    }
    return equal and left.hw_scalar == right.hw_scalar, details


def _check_kernel_quotient(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    params = shared.params
    m = cfg.factor_count
    if m < 2:
        raise CheckError("kernel-quotient check needs at least two factors")
    word = cfg.word or _default_word(m)
    sigma = word_permutation(m, word)
    src = shared.source_module
    tgt = pattern_module(params, permute_pattern(shared.factors, sigma))
    intw = hom_intertwiner(src, tgt)
    quot = kernel_quotient(intw)
    kdim = len(quot.kernel_basis)
    details = {
        "word": list(word),
        "source_dim": src.dim,
        "kernel_dim": kdim,
        "quotient_dim": quot.quotient.dim,
    }
    if kdim:
        verdict = irreducibility_test(quot.quotient)
        details["quotient_irreducible"] = verdict.irreducible
        ok = verdict.irreducible
    else:
        ok = quot.quotient.equal_entrywise(src)
        details["quotient_equals_source"] = ok
    return ok, details


def _identity_details(rep) -> dict:
    out = {"checked": rep.checked, "window_cap": rep.window_cap}
    if rep.failures:
        out["failures"] = [str(f) for f in rep.failures[:3]]
    return out


def _check_e_relations(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    rep = hd.check_e_relations(shared.realization)
    return rep.ok, _identity_details(rep)


def _check_zeta_hom(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    rep = hd.check_zeta(shared.realization)
    return rep.ok, _identity_details(rep)


def _check_alpha(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    rep = hd.check_alpha(shared.realization, cfg.order,
                         series=shared.series)
    details = {
        "order": cfg.order,
        "generator_exchange": _identity_details(rep.yangian),
        "commutant": _identity_details(rep.commutant),
    }
    return rep.ok, details


def _check_x_identities(cfg: RunConfig, shared: _Shared) -> tuple[bool, dict]:
    m = cfg.factor_count
    if m < 1:
        raise CheckError("appendix-x-identities check needs at least one factor")
    rep = hd.check_x_identities(shared.series)
    details = _identity_details(rep)
    details["order"] = cfg.order
    return rep.ok, details


@dataclass(frozen=True)
class CheckSpec:
    name: str
    description: str
    identity: str
    runner: Callable[[RunConfig, _Shared], tuple[bool, dict]]


_REGISTRY: dict[str, CheckSpec] = {}


def _register(name: str, description: str, identity: str, runner) -> None:
    _REGISTRY[name] = CheckSpec(name, description, identity, runner)


_register(
    "rtt",
    "defining exchange relation for the configured module at sample points",
    "R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v)",
    _check_rtt)
_register(
    "isomorphisms",
    "one-block translation between the two polynomial realizations, plus "
    "commutation of scalar factors",
    "tilde block = scalar twist x prime block; Omega x M = M x Omega",
    _check_isomorphisms)
_register(
    "hw-eigenvalues",
    "diagonal eigenvalues on the distinguished vector against the "
    "per-factor product formulas",
    "T_ii(u) v = v prod_a (linear ratios in u)",
    _check_hw_eigenvalues)
_register(
    "drinfeld",
    "extraction of the classifying monic polynomials from eigenvalue ratios",
    "Lambda_i/Lambda_{i+1} = P_i(u+1/2)/P_i(u-1/2)",
    _check_drinfeld)
_register(
    "hw-scalar",
    "normalization scalar of the composed swap against the closed-form "
    "product over inversions",
    "composed swap maps v to (prod z_eta) v",
    _check_hw_scalar)
_register(
    "braid",
    "word independence of composed swaps for three factors",
    "s1 s2 s1 = s2 s1 s2 as exact matrices",
    _check_braid)
_register(
    "kernel-quotient",
    "kernel of the sorting map, with the quotient action and its "
    "irreducibility when the kernel is nonzero",
    "quotient by ker of the sorting map is irreducible at degenerate weights",
    _check_kernel_quotient)
_register(
    "e-relations",
    "gl relations for the quadratic composite operators of the "
    "oscillator realization",
    "[E_ai,bj, E_ck,dl] = delta E - delta E (gl_{mn} relations)",
    _check_e_relations)
_register(
    "zeta-hom",
    "homomorphism property of the diagonal composite map on gl_m",
    "zeta[E_ab, E_cd] = [zeta E_ab, zeta E_cd]",
    _check_zeta_hom)
_register(
    "alpha-series",
    "generating-series homomorphism into the oscillator algebra and its "
    "commutant property",
    "series coefficients satisfy the exchange relation and commute with gl_m",
    _check_alpha)
_register(
    "appendix-x-identities",
    "inverse-matrix series exchange identities in a finite representation",
    "(u-v) X(u) X(v) = X(v) - X(u)",
    _check_x_identities)


def list_checks() -> list[dict]:
    """Registered checks: name, one-line description, identity label."""
    return [{"name": spec.name,
             "description": spec.description,
             "identity": spec.identity}
            for spec in _REGISTRY.values()]


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class Report:
    config: dict
    records: tuple[dict, ...]
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"config": self.config,
                "checks": list(self.records),
                "status": self.status}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _run_one(cfg: RunConfig, name: str, shared: _Shared) -> dict:
    spec = _REGISTRY[name]
    start = time.perf_counter()
    try:
        ok, details = spec.runner(cfg, shared)
        status = "pass" if ok else "fail"
    except ConfigError:
        raise
    except (CheckError, ValueError, ArithmeticError) as exc:
        status, details = "error", {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    return {"name": name, "status": status, "details": details,
            "time": round(elapsed, 6)}


def run(config: RunConfig) -> Report:
    """Execute the configured checks in their declared order, building
    each pattern module and swap pair map once (`modules.run_memo`)."""
    shared = _Shared(config)
    with run_memo():
        records = tuple(_run_one(config, name, shared)
                        for name in config.checks)
    status = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    return Report(config=config_to_dict(config), records=records,
                  status=status)


# ---------------------------------------------------------------------------
# entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="yangian",
        description="Run exact checks on rational modules described by a "
                    "JSON config.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file with the run parameters")
    parser.add_argument("--check", metavar="NAME", action="append",
                        help="run this check instead of the config's list "
                             "(repeatable)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the registered checks and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_checks:
        print(json.dumps(list_checks(), indent=2, sort_keys=True))
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        print("yangian: error: --config is required unless --list-checks "
              "is given", file=sys.stderr)
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"yangian: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"yangian: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = config_from_dict(raw)
        if args.check:
            for name in args.check:
                if name not in _REGISTRY:
                    raise ConfigError(f"--check: unknown check {name!r}")
            cfg = replace(cfg, checks=tuple(args.check))
        if args.output is not None:
            cfg = replace(cfg, output=args.output)
        report = run(cfg)
    except ConfigError as exc:
        print(f"yangian: config error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json()
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"yangian: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
