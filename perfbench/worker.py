"""One workload pass in a fresh process: set up, run configs closed-loop, report.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --spawned-at T --workdir DIR --out RESULT.json [--setup-only]

Set-up is everything from process start (`--spawned-at`, a CLOCK_MONOTONIC
reading taken by the parent just before it spawned this process) to the
first config dispatched: importing yangian, generating the configs and
writing the first round of them as files (each later round is written just
before it starts).  Then one client calls `yangian.cli.main` in-process on
one config at a time, each under a SIGALRM wall-clock limit, round after
round.  A reference loop timed between configs measures the machine's
speed, and the run starts no new round once its configs have used
`--seconds` of speed-scaled time, so a run covers the same number of rounds
whether the host is fast or slow at the moment.  Reports are checked after
the timed loop.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# configs generated per run: this many times the rounds the seed commit
# fits into the run, so a much faster program still does not run dry
POOL_HEADROOM = 10
# no config starts after this many times --seconds of wall time, however
# slow the machine (a round in progress is cut)
CUTOFF_FACTOR = 1.5


# The reference loop builds and sums a dict of tuple keys and Fractions (the
# allocation-heavy mix of the program), REFERENCE_ITEMS entries, defined to
# take REFERENCE_S.  It runs between configs at most every REFERENCE_EVERY_S.
# On a shared host the speed of the same code swings by tens of percent
# within seconds, so each config time is scaled by REFERENCE_S over the
# median reference time within REFERENCE_WINDOW_S of the config.  On a
# 2-core shared VM this cut the spread of the timing metrics over eight seeds
# from about 0.09 (raw wall time) to about 0.02, and beat one speed per run.
REFERENCE_ITEMS = 1500
REFERENCE_S = 0.015
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 2.0


def reference_s() -> float:
    """Wall time of the reference loop, with the garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple, Fraction] = {}
        for i in range(REFERENCE_ITEMS):
            key = (i % 17, i % 13, i // 7, i % 5)
            table[key] = table.get(key, 0) + Fraction(i % 11 + 1, i % 7 + 1)
        acc = Fraction(0)
        for key, value in sorted(table.items()):
            acc += value * key[0]
        return time.perf_counter() - t0
    finally:
        gc.enable()


class ConfigTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise ConfigTimeout()


def _strip_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_time(v) for k, v in obj.items() if k != "time"}
    if isinstance(obj, list):
        return [_strip_time(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    text = json.dumps(_strip_time(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _expected_echo(cfg: dict) -> dict:
    return {"theta": cfg["theta"], "n": cfg["n"], "p": cfg["p"], "q": cfg["q"],
            "mu": [workloads.frac_str(Fraction(x)) for x in cfg["mu"]],
            "nu": cfg["nu"], "word": cfg.get("word", []),
            "checks": cfg["checks"], "truncation": cfg.get("truncation", 6),
            "order": cfg.get("order", 4),
            "allow_resonant": cfg.get("allow_resonant", False)}


def _identity_ok(d: dict) -> bool:
    return d.get("checked", 0) > 0 and not d.get("failures")


def check_problem(entry: dict, rec: dict) -> str | None:
    """Why one check record is wrong, beyond its status, or None."""
    name, d = rec["name"], rec["details"]
    cfg = entry["config"]
    if name == "rtt":
        if d.get("dim") != entry["dim"] or "failure" in d:
            return "rtt: wrong dimension or failure witness"
    elif name == "hw-eigenvalues":
        if len(d.get("matches", [])) != cfg["n"] or not all(d["matches"]):
            return "hw-eigenvalues: closed form does not match"
    elif name == "drinfeld":
        if not d.get("monic") or len(d.get("polynomials", [])) != cfg["n"] - 1:
            return "drinfeld: polynomials missing or not monic"
    elif name == "hw-scalar":
        if d.get("closed_form") != d.get("scalar"):
            return "hw-scalar: scalar differs from the closed form"
    elif name == "braid":
        if not (d.get("matrices_equal") and d.get("scalars_equal")
                and d.get("dim") == entry["dim"]):
            return "braid: words disagree"
    elif name == "kernel-quotient":
        if d.get("source_dim") != entry["dim"]:
            return "kernel-quotient: wrong source dimension"
        if entry["resonant"]:
            if not (d.get("kernel_dim", 0) > 0 and d.get("quotient_irreducible")):
                return "kernel-quotient: degenerate weight lost its kernel"
        elif d.get("kernel_dim") != 0 or not d.get("quotient_equals_source"):
            return "kernel-quotient: generic sorting map is not injective"
    elif name == "alpha-series":
        if not (_identity_ok(d["generator_exchange"]) and _identity_ok(d["commutant"])):
            return "alpha-series: no identities checked"
    elif not _identity_ok(d):
        return f"{name}: no identities checked"
    return None


def validate(entry: dict, outcome: dict, report_path: Path) -> dict:
    """Count attempted and failed checks of one config and digest its report."""
    checks = entry["config"]["checks"]
    result = {"attempted": len(checks), "failed": len(checks),
              "digest": None, "problems": []}
    if outcome["timed_out"]:
        result["problems"].append(f"timed out after {entry['limit_s']} s")
        return result
    if "error" in outcome:
        result["problems"].append(f"raised {outcome['error']}")
        return result
    if outcome["rc"] != 0:
        result["problems"].append(f"exit code {outcome['rc']}")
        return result
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        result["problems"].append(f"unreadable report: {exc}")
        return result
    result["digest"] = report_digest(report)
    if (report.get("status") != "pass"
            or report.get("config") != _expected_echo(entry["config"])
            or [r["name"] for r in report.get("checks", [])] != checks):
        result["problems"].append("report status or config echo is wrong")
        return result
    failed = 0
    for rec in report["checks"]:
        problem = ("status " + rec["status"] if rec["status"] != "pass"
                   else check_problem(entry, rec))
        if problem:
            failed += 1
            result["problems"].append(problem)
    result["failed"] = failed
    return result


def speed_scale(refs: list[tuple[float, float]], t0: float, t1: float) -> float:
    """REFERENCE_S over the median reference time around [t0, t1]."""
    times = [t for t, _ in refs]
    lo = bisect.bisect_left(times, t0 - REFERENCE_WINDOW_S)
    hi = bisect.bisect_right(times, t1 + REFERENCE_WINDOW_S)
    window = [ref for _, ref in refs[lo:hi]] or [ref for _, ref in refs]
    return REFERENCE_S / statistics.median(window)


def write_round(batch: list[dict], workdir: Path) -> None:
    for entry in batch:
        (workdir / f"{entry['id']}.json").write_text(json.dumps(entry["config"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from yangian import cli

    workload = workloads.WORKLOADS[args.workload]
    rounds = max(4, math.ceil(POOL_HEADROOM * args.seconds / workload.round_cost_s))
    pool = workloads.generate(args.workload, args.seed, rounds)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    write_round(pool[0], workdir)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)

    setup_s = time.monotonic() - args.spawned_at
    speed = REFERENCE_S / statistics.median(reference_s() for _ in range(5))
    result = {"setup_s": setup_s, "setup_norm_s": setup_s * speed}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    clock = time.perf_counter
    start = clock()
    cutoff = start + CUTOFF_FACTOR * args.seconds
    done, refs, whole_rounds, whole_wall_s = [], [], 0, 0.0
    last_ref = -REFERENCE_EVERY_S
    used_s = 0.0    # speed-scaled time of the configs run so far
    for r, batch in enumerate(pool):
        if used_s >= args.seconds:
            break
        if r:
            write_round(batch, workdir)
        for entry in batch:
            if clock() >= cutoff:
                break
            cfg_path = workdir / f"{entry['id']}.json"
            out_path = workdir / f"{entry['id']}.report.json"
            if tracer is not None:
                tracer.begin_config(entry["id"])
            outcome = {"rc": None, "timed_out": False}
            if clock() - last_ref >= REFERENCE_EVERY_S:
                last_ref = clock()
                refs.append((last_ref - start, reference_s()))
            signal.setitimer(signal.ITIMER_REAL, entry["limit_s"])
            t0 = clock()
            outcome["t_s"] = t0 - start
            try:
                try:
                    outcome["rc"] = cli.main(["--config", str(cfg_path),
                                              "--output", str(out_path)])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except ConfigTimeout:
                outcome["timed_out"] = True
            except Exception as exc:  # a crash fails the config, not the run
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["elapsed_s"] = clock() - t0
            recent = [ref for _, ref in refs[-8:]]
            used_s += outcome["elapsed_s"] * REFERENCE_S / statistics.median(recent)
            done.append((entry, outcome, out_path))
        else:
            whole_rounds += 1
            whole_wall_s = clock() - start
            continue
        break
    wall_s = clock() - start
    if tracer is not None:
        tracer.uninstall()

    refs = refs or [(0.0, reference_s())]
    records = []
    for entry, outcome, out_path in done:
        checked = validate(entry, outcome, out_path)
        t0, dt = outcome["t_s"], outcome["elapsed_s"]
        records.append({"id": entry["id"], "round": entry["round"],
                        "slot": entry["slot"], "variant": entry["variant"],
                        "elapsed_s": dt,
                        "norm_s": dt * speed_scale(refs, t0, t0 + dt), **checked})
    result.update({
        "wall_s": wall_s,
        "whole_rounds": whole_rounds,
        "whole_wall_s": whole_wall_s,
        "reference_s": statistics.median(ref for _, ref in refs),
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(done))
        trace_dir = ROOT / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / f"{args.workload}.npz")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
