"""A/B the benchmark between two checkouts and store its result lines.

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR \
        protocol_batch:11-20 figure_all:11-13 --out BENCH_6.json

Each ``WORKLOAD:FIRST-LAST`` runs one pair per seed: ``perfbench/run.py
--workload WORKLOAD --seed SEED --seconds 25 --trace 0`` in both
checkouts, alternating which side runs first from pair to pair.  The
output keeps the last two lines of every run (the report line and the
result line) and, per workload and end-to-end metric of
``BENCHMARK.json``, both sides' medians and quartiles, how many pairs
the change won, whether the gain rule holds (the change wins at least
nine tenths of the pairs and its median beats the parent's by more than
the parent's interquartile range), whether the change's median is
within the metric's bound of the parent's, and whether the metric is
unresolved (either side's interquartile range exceeds the bound times
its median, and not every change run beats every parent run).  One
summary line per workload and metric is printed at the end.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 25
SIDES = ("parent", "change")


def _run(checkout, workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()[-2:]
    if proc.returncode != 0 or len(lines) != 2:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    report, result = (json.loads(line) for line in lines)
    return {"seed": seed, "report": report, "result": result}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _summary(runs, metrics):
    """Per end-to-end metric, given as ``{name: (better, bound)}``:
    medians, quartiles, wins, the gain rule, the bound check and whether
    the runs spread too widely for the bound to decide."""
    out = {}
    for name, (better, bound) in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in runs[side]] for side in SIDES}
        quart = {side: _quartiles(values[side]) for side in SIDES}
        wins = sum(sign * (p - c) > 0
                   for p, c in zip(values["parent"], values["change"]))
        gain = sign * (quart["parent"][1] - quart["change"][1])
        ratio = quart["change"][1] / quart["parent"][1]
        wide = any(q[2] - q[0] > bound * q[1] for q in quart.values())
        separated = all(sign * (p - c) > 0 for p in values["parent"]
                        for c in values["change"])
        out[name] = {
            "parent_median": quart["parent"][1],
            "change_median": quart["change"][1],
            "parent_quartiles": quart["parent"],
            "change_quartiles": quart["change"],
            "change_over_parent": ratio,
            "change_wins": f"{wins}/{len(values['parent'])}",
            "gain_rule_holds": (wins >= 0.9 * len(values["parent"])
                                and gain > quart["parent"][2]
                                - quart["parent"][0]),
            "bound": bound,
            "within_bound": (ratio <= 1.0 + bound if better == "lower"
                             else ratio >= 1.0 - bound),
            "unresolved": wide and not separated,
        }
    return out


def _summary_line(workload, name, row):
    return (f"{workload} {name}: parent {row['parent_median']:.4g} change "
            f"{row['change_median']:.4g} ratio {row['change_over_parent']:.3f}"
            f" wins {row['change_wins']} gain_rule {row['gain_rule_holds']} "
            f"within_bound {row['within_bound']} (bound {row['bound']}) "
            f"unresolved {row['unresolved']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("plan", nargs="+", help="WORKLOAD:FIRST-LAST seeds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    doc = {"command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
           "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
           "workloads": {}}
    pair = 0
    for item in args.plan:
        workload, _, seeds = item.partition(":")
        first, _, last = seeds.partition("-")
        runs = {side: [] for side in SIDES}
        for seed in range(int(first), int(last or first) + 1):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(_run(checkouts[side], workload, seed))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['result']['metrics']}", flush=True)
            pair += 1
        doc["workloads"][workload] = {"runs": runs,
                                      "summary": _summary(runs, metrics)}
        env = runs["change"][0]["report"]["env"]
        doc["environment"] = {key: env[key] for key in (
            "python", "numpy", "openblas", "openblas_threads", "nproc")}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, row in entry["summary"].items():
            print(_summary_line(workload, name, row))


if __name__ == "__main__":
    main()
