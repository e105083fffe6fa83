#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py

Each set runs `run.py` once per seed on every workload of
BENCHMARK.json, with its run length; set 1 takes seeds 1000-1009 and
set 2 seeds 2000-2009.  The two sets are interleaved seed by seed, the
set that goes first alternating, so that a slow phase of the machine
that lasts minutes falls on both sets alike.  For every end-to-end
metric of every workload it prints each set's median, its quartiles
(`statistics.quantiles`, n=4) and its spread, (q3 - q1) / median,
against the metric's bound.  The benchmark is steady when

* every spread is within its bound,
* set 2's median is not worse than set 1's by more than the bound,
* both sets fail the same share of their jobs.

The figures also go to perfbench/out/steady.json.  Exit status 0 when
the benchmark is steady.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS, RUNS = 2, 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])



def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for r in range(RUNS):
        order = range(SETS) if r % 2 == 0 else reversed(range(SETS))
        for s in order:
            for w in workloads:
                seed = 1000 * (s + 1) + r
                out = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(out)
                print("set %d  %-18s seed %d  failed %d/%d  %s" % (
                    s + 1, w, seed, out["failed"], out["attempted"],
                    "  ".join("%s=%.4g" % (k, v["value"])
                              for k, v in out["metrics"].items())),
                    flush=True)

    steady = True
    report = {}
    print()
    for w in workloads:
        shares = [sum(o["failed"] for o in runs) /
                  sum(o["attempted"] for o in runs) for runs in results[w]]
        if len(set(shares)) > 1 or not all(o["correct"] for runs in
                                           results[w] for o in runs):
            steady = False
        report[w] = {"failed_share": shares, "metrics": {}}
        print("%s  failed share per set: %s" % (w, shares))
        for m in spec["end_to_end"]:
            rows = []
            for runs in results[w]:
                vals = [o["metrics"][m["name"]]["value"] for o in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med})
            drift = [(r["median"] - rows[0]["median"]) / rows[0]["median"]
                     * (1 if m["better"] == "lower" else -1) for r in rows]
            ok = (all(d <= m["bound"] for d in drift) and
                  all(r["spread"] <= m["bound"] for r in rows))
            steady &= ok
            report[w]["metrics"][m["name"]] = {"sets": rows, "drift": drift,
                                               "bound": m["bound"], "ok": ok}
            print("  %-12s bound %.2f  %s  drift %s  %s" % (
                m["name"], m["bound"], "  ".join(
                    "median %.4g [%.4g, %.4g] spread %.3f" % (
                        r["median"], r["q1"], r["q3"], r["spread"])
                    for r in rows),
                " ".join("%+.3f" % d for d in drift[1:]) or "-",
                "ok" if ok else "NOT STEADY"))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
