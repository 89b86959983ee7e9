"""Benchmark of `yangian --config` runs: one command, every metric, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the checkout that holds this file and builds
nothing (the program is the pure-Python package under src/).  Each pass
runs in a fresh single-threaded worker process (worker.py), one at a time.

--trace 0 measures the end-to-end metrics with tracing off: six set-up
probes, then one timed pass.  --trace 1 runs an untraced pass and then a
traced pass of the same seed, prints both, checks that every report common
to both passes has the same digest, and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import CUTOFF_FACTOR  # noqa: E402

SETUP_PROBES = 6
TAIL_BEYOND = 10   # samples the tail percentile must leave beyond it

E2E_UNITS = {"configs_per_s": "1/s", "verdict_s.p50": "s",
             "verdict_s.tail": "s", "pass_ratio": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def per_layer_units() -> dict[str, str]:
    units = {name: layer_unit(name) for name in tracer.metric_names()}
    units.update({"trace.configs_per_s.untraced": "1/s",
                  "trace.configs_per_s.traced": "1/s",
                  "trace.overhead": "ratio"})
    return units


class WorkerFailed(RuntimeError):
    pass


def spawn_worker(args, workdir: Path, trace: int, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    out = workdir / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    limit = CUTOFF_FACTOR * args.seconds + workloads.TIMEOUT_MAX_S + 10
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=env, stdout=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker did not finish within {limit} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    shutil.rmtree(workdir)
    return result


def timed_records(res: dict) -> list[dict]:
    """Records of whole rounds (all records if no round completed)."""
    whole = [r for r in res["records"] if r["round"] < res["whole_rounds"]]
    return whole or res["records"]


def configs_per_s(res: dict) -> float:
    """Configs per second at the round's size mix.

    Slots per round over the time of one round, taken as the sum over slots
    of the median speed-scaled time in the whole rounds (averaged over the
    variants of a slot whose shape takes turns from round to round).
    """
    times: dict[int, dict[int, list[float]]] = {}
    for r in res["records"]:
        if r["round"] < res["whole_rounds"]:
            times.setdefault(r["slot"], {}).setdefault(r["variant"], []).append(r["norm_s"])
    if not times:
        return len(res["records"]) / sum(r["norm_s"] for r in res["records"])
    round_s = sum(statistics.mean(statistics.median(v) for v in variants.values())
                  for variants in times.values())
    return len(times) / round_s


def latency(res: dict, key: str) -> tuple[float, float, int, int]:
    """Median, tail value, tail percentile and sample count of config times."""
    times = sorted(r[key] for r in timed_records(res))
    n = len(times)
    if n > TAIL_BEYOND:
        pct = 100 * (n - TAIL_BEYOND) // n
        tail = times[max(math.ceil(pct * n / 100), 1) - 1]
    else:
        pct, tail = 100, times[-1]
    return statistics.median(times), tail, pct, n


def end_to_end(res: dict, setup_s: float) -> dict:
    p50, tail, _, _ = latency(res, "norm_s")
    attempted = sum(r["attempted"] for r in res["records"])
    failed = sum(r["failed"] for r in res["records"])
    return {"configs_per_s": configs_per_s(res),
            "verdict_s.p50": p50,
            "verdict_s.tail": tail,
            "pass_ratio": 1 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"]}


def describe(res: dict) -> str:
    """Sample counts and the same timings in plain wall-clock seconds."""
    p50, tail, pct, n = latency(res, "elapsed_s")
    wall = (len(timed_records(res)) / res["whole_wall_s"] if res["whole_rounds"]
            else len(res["records"]) / res["wall_s"])
    return (f"tail = p{pct} of {n} configs in {res['whole_rounds']} rounds; "
            f"wall clock: {wall:.4g} configs/s over the run, "
            f"p50 {p50:.4g} s, p{pct} {tail:.4g} s; reference loop "
            f"{res['reference_s'] * 1000:.3g} ms")


def print_table(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")


def print_problems(res: dict, label: str) -> None:
    for r in res["records"]:
        for problem in r["problems"]:
            print(f"  FAILED {label} {r['id']}: {problem}", file=sys.stderr)


def run(args) -> dict:
    base = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace == 0:
            probes = [spawn_worker(args, base / f"probe{k}", 0, setup_only=True)
                      for k in range(SETUP_PROBES)]
            res = spawn_worker(args, base / "pass", 0)
            probes.append(res)
            values = end_to_end(res, statistics.median(p["setup_norm_s"] for p in probes))
            print_table(f"{args.workload} seed {args.seed}: end to end; "
                        f"{describe(res)}; set-up {statistics.median(p['setup_s'] for p in probes):.4g} s",
                        values, E2E_UNITS)
            print_problems(res, "untraced")
            attempted = sum(r["attempted"] for r in res["records"])
            failed = sum(r["failed"] for r in res["records"])
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            return {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}

        plain = spawn_worker(args, base / "plain", 0)
        traced = spawn_worker(args, base / "traced", 1)
        print_table(f"{args.workload} seed {args.seed}: end to end (untraced "
                    f"pass); {describe(plain)}",
                    end_to_end(plain, plain["setup_norm_s"]), E2E_UNITS)
        digests = {r["id"]: r["digest"] for r in plain["records"]}
        compared = 0
        for r in traced["records"]:
            if r["id"] in digests and r["digest"] is not None:
                compared += 1
                if r["digest"] != digests[r["id"]]:
                    r["failed"] = r["attempted"]
                    r["problems"].append("report digest differs from the untraced pass")
        layer = dict(traced["per_layer"])
        layer["trace.configs_per_s.untraced"] = configs_per_s(plain)
        layer["trace.configs_per_s.traced"] = configs_per_s(traced)
        layer["trace.overhead"] = configs_per_s(plain) / configs_per_s(traced)
        units = per_layer_units()
        print_table(f"{args.workload} seed {args.seed}: per layer (traced pass, "
                    f"per config over {len(traced['records'])} configs; "
                    f"{compared} report digests compared)", layer, units)
        print_problems(plain, "untraced")
        print_problems(traced, "traced")
        attempted = sum(r["attempted"] for r in plain["records"] + traced["records"])
        failed = sum(r["failed"] for r in plain["records"] + traced["records"])
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        return {"correct": failed == 0 and compared > 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "yangian" / "cli.py").is_file():
        print(f"perfbench: no yangian sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
