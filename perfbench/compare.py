"""Compare a parent and a change on the end-to-end metrics.

    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl
        Judge results that run.py appended (``--record``) for each side.
        Runs pair up in file order per workload, so record them alternately.

    python3 perfbench/compare.py run --parent-src DIR --change-src DIR \\
            --workload NAME [--pairs 10] [--seed 1000]
        Run both package trees with this benchmark code, alternating which
        side goes first, pair i on seed SEED+i; then print the report.

For each workload and metric the report gives each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and
a verdict. The change *improved* a metric when it wins at least 9 pairs in
10 and the medians differ, in its favour, by more than the parent's
interquartile range. Otherwise it is *no worse* when its median is within
the metric's bound of the parent's, *unresolved* when either side's spread
(interquartile range over median) exceeds the bound, and *worse* when
neither holds. A change that is better on every run than the parent on
every run is never unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_records(path) -> dict:
    """Untraced results by workload, in file order."""
    out: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0:
                out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_share = wins / min(len(parent), len(change))
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = -gain / abs(pm) if pm else 0.0
    if win_share >= 0.9 and gain > p3 - p1:
        verdict = "improved"
    elif min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "no worse"
    elif spread > bound:
        verdict = "unresolved"
    elif worse_by <= bound:
        verdict = "no worse"
    else:
        verdict = "worse"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "win_share": win_share,
            "spread": spread, "verdict": verdict}


def report(parent_path, change_path, bench_path="BENCHMARK.json") -> int:
    with open(bench_path, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_records(parent_path), load_records(change_path)
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        ps, cs = parent[workload][:n], change[workload][:n]
        bad = sum(not r["correct"] for r in ps + cs)
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in ps]
            cv = [r["metrics"][m["name"]]["value"] for r in cs]
            j = judge(pv, cv, m["better"], m["bound"])
            cell = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:<16} {m['name']:<13} {cell.format(*j['parent']):<30} "
                  f"{cell.format(*j['change']):<30} {j['win_share']:>5.0%}  {j['verdict']}")
        print(f"{workload:<16} {n} pair(s); {bad} run(s) with failed output checks")
    return 0


def run_pairs(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent_src, "change": args.change_src}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed + i), "--src", sides[side],
                   "--record", str(out_dir / f"{side}.jsonl")]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            print(f"pair {i + 1}/{args.pairs}: {side}", flush=True)
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return report(out_dir / "parent.jsonl", out_dir / "change.jsonl")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    r = sub.add_parser("run")
    r.add_argument("--parent-src", required=True)
    r.add_argument("--change-src", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1000)
    r.add_argument("--seconds", type=float,
                   help="seconds per run (default: run_seconds of BENCHMARK.json)")
    r.add_argument("--out-dir", default=".perfbench/compare")
    args = p.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
