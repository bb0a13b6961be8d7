#!/usr/bin/env python3
"""Checks on the benchmark itself, run through perfbench/run.py.

    python3 perfbench/check.py spread --workload W [--seeds 1-10] [--seconds S]
        Runs W once per seed (tracing off; --seconds defaults to
        BENCHMARK.json's run_seconds) and prints, per end-to-end metric, the
        median, the quartiles and the spread (third minus first quartile
        over the median, as statistics.quantiles(n=4) gives them) next to
        the metric's bound, flagging spreads above a third of the bound.
        --json FILE also writes every run's result.

    python3 perfbench/check.py determinism --workload W [--seed N]
        Runs W twice with seed N and once with seed N+1, traced and
        untraced, and checks that the deterministic counts repeat exactly
        for the same seed and that the other seed changes the inputs.

Exits non-zero when a run fails, a result is not correct, a spread exceeds
its bound, or a count does not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that repeat exactly for a seed.  The per-layer ones are totals
# over a fixed set of ops or over the fixed slice.
EXACT_END_TO_END = ("code_instrs", "run_instrs", "avail_ratio")
EXACT_PER_LAYER_PREFIXES = ("analysis.", "fuzz.stops", "fuzz.observations",
                            "ir.instrs_", "codegen.minstrs",
                            "codegen.frame_words", "vm.instrs",
                            "core.debuginfo_kb", "core.degraded_queries",
                            "support.arena_kb", "service.shed",
                            "service.timeouts", "service.unsound")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
    if not result["correct"]:
        sys.exit("incorrect result for %s seed %d: %s"
                 % (workload, seed, json.dumps(prov.get("problems"))))
    return result, prov


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        result, prov = run(args.workload, seed, seconds, 0)
        runs.append({"seed": seed, "result": result, "provenance": prov})
        print("seed %d done" % seed, file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    ok = True
    print("%-14s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / med if med else float("inf")
        if name == "setup_s":
            flag = ""
        elif rel > bound:
            flag = "  OVER BOUND"
            ok = False
        elif rel > bound / 3:
            flag = "  over a third of the bound"
        else:
            flag = ""
        print("%-14s %14.6g %14.6g %14.6g %8.4f %6.3f%s"
              % (name, med, q1, q3, rel, bound, flag))
    return 0 if ok else 1


def exact_metrics(workload, seed, seconds, trace):
    metrics = run(workload, seed, seconds, trace)[0]["metrics"]
    if trace == 0:
        return {k: metrics[k]["value"] for k in EXACT_END_TO_END}
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".changed") or k.startswith(EXACT_PER_LAYER_PREFIXES)}


def determinism(args):
    ok = True
    for trace in (0, 1):
        first = exact_metrics(args.workload, args.seed, args.seconds, trace)
        again = exact_metrics(args.workload, args.seed, args.seconds, trace)
        other = exact_metrics(args.workload, args.seed + 1, args.seconds,
                              trace)
        differs = [k for k in first if first[k] != again.get(k)]
        if differs:
            ok = False
            print("trace %d: not repeated for seed %d: %s"
                  % (trace, args.seed, ", ".join(differs)))
        if first == other:
            ok = False
            print("trace %d: seed %d and seed %d gave identical counts"
                  % (trace, args.seed, args.seed + 1))
        print("trace %d: %d exact counts %s; seed %d changes %d of them"
              % (trace, len(first), "repeat" if not differs else "DIFFER",
                 args.seed + 1,
                 sum(first[k] != other.get(k) for k in first)))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=int)
    sp.add_argument("--json")
    dp = sub.add_parser("determinism")
    dp.add_argument("--workload", required=True)
    dp.add_argument("--seed", type=int, default=1)
    dp.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    return spread(args) if args.cmd == "spread" else determinism(args)


if __name__ == "__main__":
    sys.exit(main())
