"""Seeded, deterministic config generator for the benchmark workloads.

Every workload is a fixed *round*: an ordered list of slots.  A slot fixes
the shape of a config (theta, n, the degrees nu, the checks, the order) and
so its cost; the seed draws the parameters mu and where the cycle of tilde
counts p = 0..m starts (each slot takes its p values in turn, so every run
sees them equally often).  A run replays the round with fresh draws until
its time is up, so every run sees the same size mix whatever its seed, and
only whole rounds are timed.

The rounds are laid out so that the median config time falls inside a
block of equally expensive configs, and so that the "tail" percentile
(the highest one with at least ten samples beyond it) falls inside a
second block at the run lengths this benchmark uses; see README.md.

The program sees only the generated JSON configs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

HW = ("hw-eigenvalues", "drinfeld")
RTT = ("rtt",)
HS_BRAID = ("hw-scalar", "braid")
KQ = ("kernel-quotient",)
OPS = ("e-relations", "zeta-hom", "alpha-series", "appendix-x-identities")

# large-denominator mu values are a/p with p a prime from this range
PRIME_RANGE = (10007, 19997)
# generic mu are a/7 with distinct residues of a mod 7 (so no difference is
# an integer) and |a| <= 48: the size of the rationals sets the cost of the
# exact arithmetic, so it is kept the same for every seed
GENERIC_DENOMINATOR = 7
GENERIC_NUMERATOR_MAX = 48
# the resonant (degenerate) configs shift the second parameter by this
RESONANT_GAP = 2

TIMEOUT_FACTOR = 20      # per-config limit = factor x cost at the seed commit
TIMEOUT_MIN_S = 5.0
TIMEOUT_MAX_S = 30.0


@dataclass(frozen=True)
class Slot:
    """One position of a round; cost_s is the config's cost at the seed."""

    theta: int
    n: int
    nu: tuple[int, ...]
    checks: tuple[str, ...]
    cost_s: float
    large_den: bool = False  # mu denominators drawn from PRIME_RANGE
    resonant: bool = False   # mu_2 = mu_1 + RESONANT_GAP
    order: int | None = None
    p: int | None = None     # fixed tilde count, where cost depends on it

    @property
    def m(self) -> int:
        return len(self.nu)


def _s(theta, n, nu, checks, cost_s, **kw) -> Slot:
    return Slot(theta, n, tuple(nu), checks, cost_s, **kw)


def _many(k: int, slot: Slot) -> list[Slot]:
    return [slot] * k


@dataclass(frozen=True)
class Workload:
    """A round of slots; a tuple of slots takes turns from round to round."""

    name: str
    why: str
    round: tuple[Slot | tuple[Slot, ...], ...]

    def variant(self, k: int, r: int) -> int:
        entry = self.round[k]
        return r % len(entry) if isinstance(entry, tuple) else 0

    def slot(self, k: int, r: int) -> Slot:
        entry = self.round[k]
        return entry[self.variant(k, r)] if isinstance(entry, tuple) else entry

    @property
    def round_cost_s(self) -> float:
        return sum(sum(s.cost_s for s in e) / len(e) if isinstance(e, tuple)
                   else e.cost_s for e in self.round)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "hw-build",
        "module construction twice per config (write-heavy linalg and "
        "modules); one config in five has prime mu denominators for the "
        "root finder",
        tuple(
            [_s(1, 2, (3,), HW, 0.01), _s(1, 3, (2,), HW, 0.015),
             _s(1, 2, (1, 1), HW, 0.025), _s(-1, 2, (1, 1), HW, 0.02),
             _s(1, 2, (4,), HW, 0.015), _s(1, 2, (2, 1), HW, 0.035),
             _s(1, 2, (1, 2), HW, 0.035)]
            # median block: dim 8
            + _many(4, _s(1, 2, (1, 1, 1), HW, 0.08))
            + _many(3, _s(-1, 2, (1, 1, 1), HW, 0.08))
            + [_s(1, 3, (1, 1), HW, 0.12), _s(1, 2, (2, 1, 1), HW, 0.15)]
            + [_s(1, 2, (1, 1), HW, 0.2, large_den=True),
               _s(-1, 2, (1, 1), HW, 0.2, large_den=True),
               _s(1, 2, (2, 1), HW, 0.2, large_den=True),
               _s(-1, 2, (1, 1), HW, 0.2, large_den=True),
               _s(1, 2, (1, 2), HW, 0.2, large_den=True)]
            # tail block: dim 18 and dim 16
            + _many(2, _s(1, 3, (2, 1), HW, 0.37))
            + [_s(1, 3, (1, 2), HW, 0.37), _s(-1, 2, (1, 1, 1, 1), HW, 0.35)])),
    Workload(
        "rtt-grid",
        "RTT exchange check: each module built once, then dense integer "
        "products on the sample grid (read-heavy linalg)",
        tuple(
            [_s(1, 2, (1, 1, 1), RTT, 0.06), _s(-1, 2, (1, 1, 1), RTT, 0.1)]
            # median block: dim 12
            + _many(4, _s(1, 2, (2, 1, 1), RTT, 0.13))
            + [_s(-1, 3, (1, 2), RTT, 0.25)]
            # tail block: dim 16, with a dim-18 head every other round
            + _many(2, _s(1, 2, (1, 1, 1, 1), RTT, 0.6))
            + [(_s(1, 3, (2, 1), RTT, 1.0), _s(1, 2, (1, 1, 1, 1), RTT, 0.6))])),
    Workload(
        "intertwine-chain",
        "swap intertwiners: step and compose_word rebuild pattern modules "
        "per letter; hom_space solves dense systems for kernels",
        tuple(
            # 2-factor kernel-quotient: resonant and generic, half each
            _many(3, _s(1, 2, (1, 1), KQ, 0.12, resonant=True, p=0))
            + _many(3, _s(-1, 2, (1, 1), KQ, 0.1, resonant=True, p=0))
            # median block: dim 4
            + _many(6, _s(1, 2, (1, 1), KQ, 0.15))
            # tail block: dim 6
            + _many(4, _s(1, 2, (2, 1), KQ, 0.45))
            # one head per round, so the tail falls inside the block above
            + [(_s(1, 2, (1, 1, 1), HS_BRAID, 1.5),
                _s(1, 2, (1, 1, 1), KQ, 2.7),
                _s(-1, 2, (1, 1, 1), HS_BRAID, 1.5))])),
    Workload(
        "operator-series",
        "oscillator-realization identities: only the hd layer runs, so "
        "this is the no-change control for linalg, modules and verify",
        tuple(
            [_s(1, 1, (1,), OPS, 0.01, order=5),
             _s(1, 2, (1,), OPS, 0.06, order=5),
             _s(-1, 2, (1,), OPS, 0.04, order=5),
             _s(1, 1, (1, 1), OPS, 0.09, order=5),
             _s(-1, 1, (1, 1), OPS, 0.05, order=5)]
            # median block
            + _many(5, _s(-1, 1, (1, 1, 1), OPS, 0.24, order=4))
            # tail block
            + _many(3, _s(-1, 1, (1, 1, 1), OPS, 0.35, order=5))
            # one head per round, so the tail falls inside the block above
            + [(_s(1, 2, (1, 1), OPS, 1.3, order=5),
                _s(-1, 2, (1, 1), OPS, 1.1, order=5))])),
)}


def primes_in(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, hi + 1, i)))
    return [i for i in range(lo, hi + 1) if sieve[i]]


def block_dim(theta: int, n: int, degree: int) -> int:
    """Dimension of one degree-d block of n commuting or anticommuting variables."""
    return comb(degree + n - 1, n - 1) if theta == 1 else comb(n, degree)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _generic_mu(rng: random.Random, m: int, spread: int) -> list[Fraction]:
    d, top = GENERIC_DENOMINATOR, GENERIC_NUMERATOR_MAX * spread
    residues = rng.sample(range(d), m)
    return [Fraction(r + d * rng.randrange(-(top // d), top // d + 1), d)
            for r in residues]


def _large_den_mu(rng: random.Random, m: int, primes: list[int]) -> list[Fraction]:
    # distinct primes, so every difference has a large denominator
    return [Fraction(rng.randrange(1, p), p) for p in rng.sample(primes, m)]


def _config(slot: Slot, p: int, rng: random.Random, primes: list[int],
            spread: int) -> dict:
    m = slot.m
    if slot.resonant:
        base = _generic_mu(rng, 1, spread)[0]
        mu = [base, base + RESONANT_GAP]
    else:
        mu = (_large_den_mu(rng, m, primes) if slot.large_den
              else _generic_mu(rng, m, spread))
    cfg = {"theta": slot.theta, "n": slot.n, "p": p, "q": m - p,
           "mu": [frac_str(x) for x in mu], "nu": list(slot.nu),
           "checks": list(slot.checks)}
    if slot.resonant:
        cfg["allow_resonant"] = True
    if slot.order is not None:
        cfg["order"] = slot.order
        cfg["truncation"] = 6
    return cfg


def generate(name: str, seed: int, rounds: int) -> list[list[dict]]:
    """`rounds` rounds of configs for a workload; same seed, same configs.

    Each entry records the config and what the benchmark checks about its
    report: the expected module dimension, whether the config is resonant,
    and the per-config time limit.  No two configs are identical.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    primes = primes_in(*PRIME_RANGE)
    p_start = rng.randrange(4)
    uses: dict[Slot, int] = {}
    seen: set[str] = set()
    out = []
    for r in range(rounds):
        batch = []
        for k in range(len(workload.round)):
            slot = workload.slot(k, r)
            p = slot.p if slot.p is not None else (
                (p_start + uses.get(slot, 0)) % (slot.m + 1))
            uses[slot] = uses.get(slot, 0) + 1
            attempts = 0
            while True:
                # a small slot can run out of distinct draws: widen the
                # numerator range each time twenty draws in a row repeat
                cfg = _config(slot, p, rng, primes, 1 + attempts // 20)
                key = json.dumps(cfg, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    break
                attempts += 1
            dim = 1
            for d in slot.nu:
                dim *= block_dim(slot.theta, slot.n, d)
            limit = min(TIMEOUT_MAX_S,
                        max(TIMEOUT_MIN_S, TIMEOUT_FACTOR * slot.cost_s))
            batch.append({"id": f"r{r:03d}s{k:02d}", "round": r, "slot": k,
                          "variant": workload.variant(k, r),
                          "config": cfg, "dim": dim,
                          "resonant": slot.resonant, "limit_s": limit})
        out.append(batch)
    return out
