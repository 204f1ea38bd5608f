"""Paired comparison of two checkouts on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent --change .

Both checkouts run this file's copy of the benchmark (identical benchmark
code and settings) against their own ``src/``, on every workload of
BENCHMARK.json and for its ``run_seconds``. Ten pairs per workload: pair i
uses seed ``--seed0 + i`` on both sides, and the side that runs first
alternates from pair to pair. For every workload and metric, one row reports each side's
median and quartiles, the pairs won, and a verdict:

* gain: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile distance;
* regression / no regression: the change's median against the metric's
  bound from BENCHMARK.json;
* unresolved: the parent's own spread is wider than the bound, and not every
  change run beats every parent run.

EERs of the same seed must be identical on both sides; any that moved are
listed. ``--results FILE`` re-judges the runs saved by an earlier ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import compare_pairs, quartiles  # noqa: E402

RUN_TIMEOUT_S = 900
PAIRS = 10


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    with open(record_path, encoding="utf-8") as fh:
        result["eer"] = json.load(fh)["eer"]
    result["seed"] = seed
    return result


def collect(parent: Path, change: Path, workloads, seed0: int, seconds: int) -> dict:
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for i in range(PAIRS):
            seed = seed0 + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                print(f"{w} pair {i + 1}/{PAIRS} seed {seed}: {side}", file=sys.stderr)
                runs[w][side].append(run_once(checkout, w, seed, seconds))
    return runs


def judge(runs: dict, spec: dict) -> list[dict]:
    rows = []
    for w, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            v = compare_pairs(name, p, c, m["better"], m["bound"])
            row = {"workload": w, **v.__dict__,
                   "parent_quartiles": quartiles(p), "change_quartiles": quartiles(c)}
            rows.append(row)
        failed_p = sum(r["failed"] for r in parent)
        failed_c = sum(r["failed"] for r in change)
        moved = sorted({k for rp, rc in zip(parent, change)
                        for k in set(rp["eer"]) | set(rc["eer"])
                        if rp["eer"].get(k) != rc["eer"].get(k)})
        rows.append({"workload": w, "metric": "failed", "parent": failed_p,
                     "change": failed_c,
                     "verdict": "worse" if failed_c > failed_p else "ok"})
        rows.append({"workload": w, "metric": "eer", "moved": moved,
                     "verdict": "results moved" if moved else "identical"})
        if failed_c > failed_p:
            for row in rows:
                if row["workload"] == w and row.get("verdict") == "gain":
                    row["verdict"] = "no gain (more failures)"
    return rows


def print_rows(rows) -> None:
    head = (f"{'workload':<21} {'metric':<16} {'parent med [q1, q3]':>32} "
            f"{'change med':>12} {'spread':>7} {'wins':>6} {'worse by':>9} "
            f"{'bound':>6}  verdict")
    print(head)
    for r in rows:
        if "parent_median" not in r:
            if r["metric"] == "eer":
                detail = ", ".join(r["moved"]) or "all equal"
            else:
                detail = f"parent {r['parent']} change {r['change']}"
            print(f"{r['workload']:<21} {r['metric']:<16} {detail:>32}  {r['verdict']}")
            continue
        q1, _, q3 = r["parent_quartiles"]
        print(f"{r['workload']:<21} {r['metric']:<16} "
              f"{r['parent_median']:>12.5g} [{q1:.5g}, {q3:.5g}]".ljust(72)
              + f"{r['change_median']:>12.5g} {r['parent_spread']:>7.3f} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['worse_by']:>+9.3f} "
              f"{r['bound']:>6}  {r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seed0", type=int, default=1000,
                        help="first seed; pick one not used while writing the change")
    parser.add_argument("--out", type=Path, help="save the raw runs as JSON")
    parser.add_argument("--results", type=Path, help="judge runs saved by --out")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.results:
        with open(args.results, encoding="utf-8") as fh:
            runs = json.load(fh)
    else:
        if not (args.parent and args.change):
            parser.error("--parent and --change are required without --results")
        workloads = [w["name"] for w in spec["workloads"]]
        runs = collect(args.parent.resolve(), args.change.resolve(), workloads,
                       args.seed0, spec["run_seconds"])
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(runs, fh, indent=1)
    print_rows(judge(runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
