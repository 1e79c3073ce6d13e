"""Summarize one benchmark result set, or compare a parent set with a change.

    python3 perfbench/compare.py SET
    python3 perfbench/compare.py PARENT CHANGE

A result set is a directory holding the standard output of ``run.py`` runs,
one file per run (any name).  Runs are grouped by workload and by ``--trace``.

For each workload and end-to-end metric the comparison prints both sides'
median and quartiles, the pairs each side won (runs paired by seed when both
sides used the same seeds, else in file-name order) and a verdict:

* improved    the change wins at least 9/10 of the pairs and its median is
              better by more than the parent's inter-quartile distance;
* worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
* unresolved  the parent's own spread (inter-quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run;
* unchanged   otherwise.

Per-layer metrics from traced runs are printed as change/parent ratios of the
medians, each with its two bases.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, trace): [(seed, metrics dict, record)]}, in file-name order."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        try:
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
        except (IndexError, KeyError, json.JSONDecodeError):
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        metrics["_failed"] = result["failed"]
        runs.setdefault((record["workload"], record["trace"]), []).append(
            (record["seed"], metrics, record)
        )
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    change_wins = sum(better(c, p, direction) for p, c in pairs)
    parent_wins = sum(better(p, c, direction) for p, c in pairs)
    gain = (pmed - cmed) if direction == "lower" else (cmed - pmed)
    if change_wins >= 0.9 * len(pairs) and gain > p3 - p1:
        word = "improved"
    elif -gain > bound * abs(pmed):
        word = "worse"
    elif spread(parent) > bound and not all(
        better(c, p, direction) for c in change for p in parent
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return word, change_wins, parent_wins


def _paired(parent_runs, change_runs):
    if sorted(s for s, _, _ in parent_runs) == sorted(s for s, _, _ in change_runs):
        parent_runs = sorted(parent_runs, key=lambda r: r[0])
        change_runs = sorted(change_runs, key=lambda r: r[0])
    n = min(len(parent_runs), len(change_runs))
    return parent_runs[:n], change_runs[:n]


def _environment(runs):
    records = [r for group in runs.values() for _, _, r in group]
    keys = ("python", "numpy", "scipy", "blas", "openblas_num_threads", "nproc")
    env = {k: sorted({str(r.get(k)) for r in records}) for k in keys}
    loads = [r["loadavg_start"][0] for r in records] + [r["loadavg_end"][0] for r in records]
    env["loadavg_1min"] = f"{min(loads):.2f}..{max(loads):.2f}"
    env["seeds"] = sorted({r["seed"] for r in records})
    return env


def _fmt(x):
    return f"{x:.6g}"


def summarize(runs, spec):
    print("environment:", json.dumps(_environment(runs)))
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(m["_failed"] for _, m, _ in group)
        print(f"\n{workload} trace={trace}: {len(group)} runs, {failed} failed ops")
        names = [m["name"] for m in spec["end_to_end"]] if trace == 0 else [
            m["name"] for m in spec["per_layer"]
        ]
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
        for name in names:
            values = [m[name] for _, m, _ in group if name in m]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            line = f"  {name:32s} median {_fmt(med):>12s}  q1 {_fmt(q1):>12s}  q3 {_fmt(q3):>12s}"
            if trace == 0:
                s = spread(values)
                line += f"  spread {s:.4f}  bound {bounds[name]}"
                if name != "setup_s" and s >= bounds[name] / 3:
                    line += "  (spread above a third of the bound)"
            print(line)


def compare(parent, change, spec):
    print("parent environment:", json.dumps(_environment(parent)))
    print("change environment:", json.dumps(_environment(change)))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = _paired(parent[key], change[key])
        print(f"\n{workload} trace={trace}: {len(p_runs)} pairs")
        if trace == 0:
            for m in spec["end_to_end"]:
                name = m["name"]
                pv = [r[1][name] for r in p_runs]
                cv = [r[1][name] for r in c_runs]
                word, cw, pw = verdict(pv, cv, m["better"], m["bound"])
                pq, cq = quartiles(pv), quartiles(cv)
                print(
                    f"  {name:12s} parent {_fmt(pq[1])} [{_fmt(pq[0])}, {_fmt(pq[2])}]"
                    f"  change {_fmt(cq[1])} [{_fmt(cq[0])}, {_fmt(cq[2])}] {m['unit']}"
                    f"  wins change {cw} parent {pw}  -> {word}"
                )
        else:
            for m in spec["per_layer"]:
                name = m["name"]
                pmed = statistics.median(r[1][name] for r in p_runs)
                cmed = statistics.median(r[1][name] for r in c_runs)
                ratio = f"{cmed / pmed:.4f}" if pmed else "n/a"
                print(
                    f"  {name:32s} ratio {ratio:>8s}"
                    f"  (change {_fmt(cmed)} / parent {_fmt(pmed)} {m['unit']})"
                )


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sets = [load_set(d) for d in argv]
    if len(sets) == 1:
        summarize(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
