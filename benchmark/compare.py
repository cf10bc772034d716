#!/usr/bin/env python3
"""Compare benchmark run sets.

A run set is a directory of ``*.json`` files, as written by
``main.exe --workload W --seed N --json FILE`` (one report) or by
``main.exe --seed N --json FILE`` (an array of four). Runs pair across
the two sets by workload and seed.

  compare.py PARENT CHANGE          one row per workload and metric:
                                    medians, quartiles, the bound, the
                                    change's win share over the pairs,
                                    and a verdict
  compare.py --self-check A B       two run sets of the same code must
                                    agree: every simulated-clock metric
                                    identical per seed, every host
                                    metric's medians within its bound,
                                    nothing unresolved
  compare.py --spread SET           quartile spread of each metric over
                                    the set's runs, as a share of the
                                    median, against its bound

Verdicts follow the rules the benchmark was defined with:

* improved   - the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               own spread (the distance between its quartiles);
* regressed  - the change's median is worse than the parent's by more
               than the metric's bound;
* unresolved - the parent's runs spread wider than the bound, and not
               every change run reads on the same side of every parent
               run;
* unchanged  - otherwise.

Exit status: 0 when nothing regressed (compare) or the check held
(--self-check); 1 otherwise; 2 on bad input.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


class BadInput(Exception):
    pass


def reports(file):
    """The reports in one --json file: a single report, or the array of
    reports that a run of all four workloads writes."""
    try:
        with open(file) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BadInput(f"{file}: {e}")
    docs = doc if isinstance(doc, list) else [doc]
    for d in docs:
        if not isinstance(d, dict) or not {"workload", "seed", "end_to_end"} <= set(d):
            raise BadInput(f"{file}: not a benchmark report")
    return docs


def load_set(path):
    """{(workload, seed): {metric: (value, clock)}} from a directory of runs."""
    if not os.path.isdir(path):
        raise BadInput(f"{path}: not a directory of run files")
    runs = {}
    for name in sorted(n for n in os.listdir(path) if n.endswith(".json")):
        for doc in reports(os.path.join(path, name)):
            metrics = {}
            for k, v in doc["end_to_end"].items():
                # An infinite percentile is written as null: a run that left
                # requests unanswered has no number to compare.
                if v["value"] is None:
                    raise BadInput(f"{path}/{name}: {doc['workload']} {k} is infinite")
                metrics[k] = (v["value"], v.get("clock", "host"))
            runs[(doc["workload"], doc["seed"])] = metrics
    if not runs:
        raise BadInput(f"{path}: no run files with end_to_end metrics")
    return runs


def by_workload(runs):
    out = {}
    for (workload, seed), metrics in runs.items():
        out.setdefault(workload, {})[seed] = metrics
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_share(parent, change, better):
    """How much worse the change's median is, as a share of the parent's."""
    if parent == 0:
        return 0.0
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def verdict(p_vals, c_vals, pairs, metric):
    better, bound = metric["better"], metric["bound"]
    pq1, pmed, pq3 = quartiles(p_vals)
    _, cmed, _ = quartiles(c_vals)
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    share = wins / len(pairs) if pairs else 0.0
    if worse_share(pmed, cmed, better) > bound:
        return "regressed", share
    moved = abs(cmed - pmed) > (pq3 - pq1)
    if len(pairs) >= MIN_PAIRS and share >= 0.9 and moved and worse_share(pmed, cmed, better) < 0:
        return "improved", share
    if spread(p_vals) > bound:
        side_better = all(
            (c < p if better == "lower" else c > p) for c in c_vals for p in p_vals
        )
        side_worse = all(
            (c > p if better == "lower" else c < p) for c in c_vals for p in p_vals
        )
        if not (side_better or side_worse):
            return "unresolved", share
    return "unchanged", share


def table(parent, change, spec):
    rows = []
    pw, cw = by_workload(parent), by_workload(change)
    for workload in sorted(set(pw) | set(cw)):
        p_runs, c_runs = pw.get(workload, {}), cw.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        for name, metric in spec.items():
            p_vals = [r[name][0] for r in p_runs.values() if name in r]
            c_vals = [r[name][0] for r in c_runs.values() if name in r]
            if not p_vals or not c_vals:
                rows.append((workload, name, None))
                continue
            pairs = [(p_runs[s][name][0], c_runs[s][name][0]) for s in seeds]
            v, share = verdict(p_vals, c_vals, pairs, metric)
            clock = next(iter(p_runs.values()))[name][1]
            rows.append(
                (
                    workload,
                    name,
                    dict(
                        clock=clock,
                        parent=quartiles(p_vals),
                        change=quartiles(c_vals),
                        bound=metric["bound"],
                        pairs=len(pairs),
                        share=share,
                        verdict=v,
                    ),
                )
            )
    return rows


def print_table(rows, spec):
    head = (
        f"{'workload':<11} {'metric':<15} {'clock':<5} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'bound':>6} {'pairs':>5} {'wins':>5}  verdict"
    )
    print(head)
    print("-" * len(head))
    for workload, name, r in rows:
        if r is None:
            print(f"{workload:<11} {name:<15} missing on one side")
            continue
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(
            f"{workload:<11} {name:<15} {r['clock']:<5} {fmt(r['parent']):>32} "
            f"{fmt(r['change']):>32} {r['bound']:>6.2f} {r['pairs']:>5} "
            f"{r['share']:>5.2f}  {r['verdict']}"
        )


def self_check(a, b, spec):
    problems = []
    for key in sorted(set(a) & set(b)):
        for name, (value, clock) in a[key].items():
            if clock == "sim" and b[key].get(name, (None,))[0] != value:
                problems.append(
                    f"{key[0]} seed {key[1]}: simulated {name} differs "
                    f"({value} vs {b[key].get(name, (None,))[0]})"
                )
    if not set(a) & set(b):
        problems.append("the two sets share no (workload, seed) run")
    rows = table(a, b, spec)
    for workload, name, r in rows:
        if r is None:
            problems.append(f"{workload} {name}: missing on one side")
            continue
        if r["verdict"] == "unresolved":
            problems.append(f"{workload} {name}: unresolved")
        med_a, med_b = r["parent"][1], r["change"][1]
        if med_a and abs(med_b - med_a) / abs(med_a) > r["bound"]:
            problems.append(
                f"{workload} {name}: medians {med_a:.4g} and {med_b:.4g} differ by more "
                f"than the bound {r['bound']}"
            )
    return rows, problems


def print_spread(runs, spec):
    print(f"{'workload':<11} {'metric':<15} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, seeds in sorted(by_workload(runs).items()):
        for name, metric in spec.items():
            vals = [r[name][0] for r in seeds.values() if name in r]
            if not vals:
                continue
            _, med, _ = quartiles(vals)
            s = spread(vals)
            flag = "" if s <= metric["bound"] / 3 else ("  > bound/3" if s <= metric["bound"] else "  > bound")
            print(f"{workload:<11} {name:<15} {len(vals):>4} {med:>12.6g} {s:>8.4f} {metric['bound']:>6.2f}{flag}")


def main(argv):
    spec = load_spec()
    if len(argv) == 3 and argv[0] == "--self-check":
        rows, problems = self_check(load_set(argv[1]), load_set(argv[2]), spec)
        print_table(rows, spec)
        for p in problems:
            print("SELF-CHECK:", p)
        print("self-check", "failed" if problems else "passed")
        return 1 if problems else 0
    if len(argv) == 2 and argv[0] == "--spread":
        print_spread(load_set(argv[1]), spec)
        return 0
    if len(argv) == 2 and not argv[0].startswith("--"):
        rows = table(load_set(argv[0]), load_set(argv[1]), spec)
        print_table(rows, spec)
        return 1 if any(r and r["verdict"] == "regressed" for _, _, r in rows) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BadInput as e:
        print(f"compare.py: {e}", file=sys.stderr)
        sys.exit(2)
