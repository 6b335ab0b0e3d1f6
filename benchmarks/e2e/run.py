"""One command per workload: run it, check it, print every metric.

    python benchmarks/e2e/run.py --workload scan_cold --seed 7
    python benchmarks/e2e/run.py --workload scan_cold --seed 7 --trace 1
    python benchmarks/e2e/run.py --workload scan_cold --aa 10 --vary-seed

The last line of standard output is the result object of BENCHMARK.json's
contract.  End-to-end metrics come from untraced runs only; ``--trace 1``
prints the per-layer metrics (see layers.py).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here, imports included

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


#: A run whose fastest and slowest fifth of calibration samples differ by
#: more than this is labelled ``disturbed`` (printed, never gated).
DISTURBED_RATIO = 1.25


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """What the numbers were measured on; refuses the pure-python DP."""
    if os.environ.get("REPRO_NO_NUMPY"):
        sys.exit("REPRO_NO_NUMPY is set: the benchmark measures the numpy scan path")
    try:
        import numpy
    except ImportError:
        sys.exit("numpy is missing: the benchmark measures the numpy scan path")
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        head = "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_head": head,
    }


def result_line(contract: dict, section: str, outcome: dict) -> str:
    units = {m["name"]: m["unit"] for m in contract[section]}
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    values = {name: float(outcome["metrics"][name]) for name in units}
    complete = all(math.isfinite(value) for value in values.values())
    metrics = {
        name: {"value": values[name] if math.isfinite(values[name]) else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps(
        {
            "correct": outcome["failed"] == 0 and complete,
            "attempted": max(1, outcome["attempted"]),
            "failed": outcome["failed"],
            "metrics": metrics,
        }
    )


def print_report(contract: dict, section: str, outcome: dict, env: dict, args, loads) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}{'  SMOKE' if args.smoke else ''}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"loadavg before {loads[0]:.2f}  after {loads[1]:.2f}")
    print(f"{'metric':<46}{'value':>16}  {'unit':<10}{'bound':>7}{'samples':>9}")
    for spec in contract[section]:
        name = spec["name"]
        bound = f"{spec['bound']:g}" if "bound" in spec else "-"
        samples = outcome.get("samples", {}).get(name, "-")
        value = outcome["metrics"][name]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<46}{shown:>16}  {spec['unit']:<10}{bound:>7}{samples:>9}")
    for name, value in outcome.get("as_measured", {}).items():
        print(f"as measured {name}: {value:.6g}")
    for key in ("speed", "digest", "oracle_checked", "lru_served", "trace_file", "spans"):
        if key in outcome:
            print(f"{key}: {outcome[key]}")
    for name, row in outcome.get("class_ms", {}).items():
        print(f"class {name}: share {row['share']:.3f}  p50 {row['p50']:.3f} ms")
    for layer, share in outcome.get("self_time_share", {}).items():
        print(f"self time {layer}: {share:.3f}")
    if "counters" in outcome:
        print("counters " + " ".join(f"{k}={v}" for k, v in outcome["counters"].items()))
    if "speed_ratio" in outcome:
        label = "disturbed" if outcome["speed_ratio"] > DISTURBED_RATIO else "steady"
        print(f"speed max/min over fifths of the run: {outcome['speed_ratio']:.3f} ({label})")
    print(f"attempted {outcome['attempted']}  failed {outcome['failed']}")


def run_once(args) -> int:
    contract = load_contract()
    env = environment()
    import workloads

    plan = workloads.build_plan(args.workload, args.seed, args.seconds, args.smoke)
    out = os.path.join(args.out, f"run-{os.getpid()}")
    os.makedirs(out)
    loads = [os.getloadavg()[0]]
    try:
        if args.trace:
            import layers

            section, outcome = "per_layer", layers.run(plan, out, args.out)
        else:
            import driver

            section, outcome = "end_to_end", driver.run(plan, out, T0)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(args.out)  # only when nothing (e.g. a trace file) is kept there
        except OSError:
            pass
    loads.append(os.getloadavg()[0])
    print_report(contract, section, outcome, env, args, loads)
    print(result_line(contract, section, outcome))
    return 0


def spread_of(values: list[float]) -> float:
    """Interquartile range over median, as the gate computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(args) -> int:
    """N runs of one workload; spread and half-set medians against bounds."""
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    rows = []
    for i in range(args.aa):
        seed = args.seed + i if args.vary_seed else args.seed
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--out", args.out]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stdout + done.stderr)
            return 1
        result = json.loads(lines[-1])
        extras = {"digest": next((l.split(": ", 1)[1] for l in lines if l.startswith("digest: ")), "")}
        extras["raw"] = {
            l.split()[2].rstrip(":"): float(l.split()[3]) for l in lines if l.startswith("as measured ")
        }
        extras["counters"] = next((l for l in lines if l.startswith("counters ")), "")
        extras["slices"] = next((l for l in lines if l.startswith("speed max/min")), "")
        rows.append((seed, result, extras))
        print(f"run {i + 1}/{args.aa} seed {seed} correct={result['correct']} "
              f"failed={result['failed']} digest={extras['digest'][:16]} {extras['slices']}", flush=True)
    seeds = "seeds %d..%d" % (rows[0][0], rows[-1][0]) if args.vary_seed else f"seed {args.seed}"
    print(f"\n### {args.workload}: {args.aa} runs, {seeds}, --seconds {args.seconds:g}\n")
    print("| metric | unit | min | median | max | IQR/median | bound | first half | second half | halves differ | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    bad = not all(result["correct"] for _, result, _ in rows)
    for spec in contract["end_to_end"]:
        name = spec["name"]
        values = [result["metrics"][name]["value"] for _, result, _ in rows]
        median = statistics.median(values)
        spread = spread_of(values)
        half = len(values) // 2
        first, second = statistics.median(values[:half]), statistics.median(values[half:])
        drift = abs(second - first) / first
        ok = drift <= bounds[name] and (name == "setup_s" or spread <= bounds[name])
        bad = bad or not ok
        print(f"| {name} | {spec['unit']} | {min(values):.6g} | {median:.6g} | {max(values):.6g} | "
              f"{spread:.4f} | {bounds[name]:g} | {first:.6g} | {second:.6g} | {drift:.4f} | "
              f"{'ok' if ok else 'EXCEEDS'} |")
    print("\nAs measured, before scaling to the reference speed (not gated): IQR/median "
          + ", ".join(
              f"{name} {spread_of([extras['raw'][name] for _, _, extras in rows]):.4f}"
              for name in rows[0][2]["raw"]
          ))
    if not args.vary_seed:
        same = len({(extras["digest"], extras["counters"]) for _, _, extras in rows}) == 1
        print(f"\nanswers digest and engine counters identical across runs: {same}")
        print(f"digest {rows[0][2]['digest']}\n{rows[0][2]['counters']}")
        bad = bad or not same
    return 1 if bad else 0


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT} holds no src/repro: the benchmark runs the program from its checkout")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.REF_SECONDS,
                        help="budget of the measured phase; scales the fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="24 lines, m=10 k=5 (the tier-1 smoke test)")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_e2e"),
                        help="scratch parent; the run's own directory under it is removed on exit")
    parser.add_argument("--aa", type=int, default=0, metavar="N", help="N runs, then the noise table")
    parser.add_argument("--vary-seed", action="store_true", help="--aa: seed, seed+1, ... (as the gate does)")
    args = parser.parse_args()
    args.out = os.path.abspath(args.out)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)  # unwinds through the finally blocks

    signal.signal(signal.SIGTERM, terminate)
    return run_aa(args) if args.aa else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
