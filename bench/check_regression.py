#!/usr/bin/env python3
"""Bench regression gate.

Compares a freshly generated bench.json against the committed baseline
and fails (exit 1) when a watched metric moved past its gate in the bad
direction. The simulator is deterministic — same seed, same workload,
same simulated microseconds — so on an unchanged tree every watched
metric matches the baseline exactly; the relative allowance is headroom
for intentional code changes, not for noise.

Every watched metric is printed as one row of a table — baseline,
current, delta, threshold, verdict — whether it passed or not, so a
failing run shows the whole picture instead of the first casualty.

Usage: check_regression.py BASELINE.json FRESH.json

When a change legitimately moves a metric past its gate, regenerate the
baseline (dune exec bench/main.exe -- e1 e3 e4 e6 e10 e12 e14 e15 e16 e17 e18 e19 e20 e21 e22 --json BENCH_PR30.json)
and commit it alongside the change, with the movement called out in the
PR description.
"""

import json
import sys

THRESHOLD = 0.15  # relative movement allowed in the bad direction
NOISE_FLOOR = 10  # baselines smaller than this are too grainy to gate on

# Counters where growth means we got slower or chattier.
UP_IS_BAD = [
    "disk.operations",
    "disk.seeks",
    "disk.seek_us",
    "disk.rotational_wait_us",
    "disk.transfer_us",
    "disk.retries",
    # The label table keeps every label it verified, so a miss is a
    # label seen for the first time or killed by the drive since. Growth
    # means the table started forgetting labels it was given.
    "fs.label_cache.misses",
    # E19's whole-pack rebuild getting slower means the repair stream or
    # its retry ladder degraded (simulated seconds from rejoin to the
    # remounted, fully repaired volume).
    "e19.rebuild_s",
]

# Counters where shrinkage means an optimisation stopped working.
# fs.label_cache.hits is 1:1 with disk operations saved (the cache is
# only consulted where a hit saves a whole operation), so a drop here is
# the fast path quietly dying. e18.throughput_mrps falling is the file
# server serving fewer requests per simulated second under the same
# 200-client overload.
DOWN_IS_BAD = [
    "fs.hints.direct.hits",
    "fs.label_cache.hits",
    # The patrol going quiet is the self-healing loop dying: a drop in
    # slices means the idle sweep stopped running.
    "fs.patrol.slices",
    "e18.throughput_mrps",
    # E6's sequential-read rate through the track buffer cache: the
    # headline number of the write-back cache PR. A drop means track
    # fills stopped amortizing the rotational wait.
    "e6.words_per_s",
]

# Histograms gated on their mean.
MEAN_UP_IS_BAD = [
    "scavenger.duration_us",
    "fs.hints.resolution_us",
    "disk.retry_latency_us",
]

# Histograms gated on their p99: the tail is where a scheduling or
# retry-path regression shows first, long before the mean moves.
P99_UP_IS_BAD = [
    "disk.op_us",
]

# Metrics that must not move at all: a retry ladder running dry is data
# loss, not a performance question; E16 plants a fixed number of
# marginal sectors that the patrol must drain exactly; and E18's client
# script is deterministic, so the server must complete exactly the same
# number of requests every run — one request more or fewer means the
# admission or scheduling discipline changed behind our back.  (Some of
# these counts are far below NOISE_FLOOR, so the percentage gate would
# skip them; determinism makes the exact gate the honest one.)
EXACT = [
    "disk.retry_exhausted",
    "fs.patrol.relocations",
    "server.reqs",
    # The simulator is deterministic, so the track buffer cache must
    # serve exactly the same hits every run — one hit more or fewer
    # means a coherence or fill decision changed behind our back.
    "fs.bio.hits",
    # E21 enumerates a fixed grid of crash points (5 workloads x 15
    # points x 3 tear variants); the number that actually fire is a
    # property of the build, so any drift means the workloads or the
    # crash countdown changed behind our back.
    "e21.crash_points",
    # The tracer mints spans from deterministic sequence counters, so
    # the whole run opens exactly the same spans every time — one span
    # more or fewer means a request's causal path changed behind our
    # back (a lost propagation, a double-billed duplicate, a trace
    # minted where none was before).
    "trace.spans",
]

# Absolute ceilings, gated on the fresh value alone: E18 computes its
# max/min completed-requests ratio as fairness*100, and no baseline
# drift may excuse a client falling more than 2x behind another.
ABS_MAX = {
    "e18.fairness_x100": 200,
    # A repair page E19 could not install is data loss, not a perf
    # question: no baseline drift may excuse a single one.
    "e19.pages_lost": 0,
    # E21's verdict proper: a crash point after which the offline
    # checker still sees a broken promise, or a committed file fails to
    # read back old-or-new, is a recovery bug — never headroom.
    "e21.invariant_violations": 0,
    # Every crash leaves its pack dirty and boot settles it — through the
    # write-ahead map or a whole-pack scavenge — so no crash point may
    # still need a scavenge after boot.
    "e21.scavenges": 0,
    # Recovery through the map must leave the catalogue and readable
    # bytes a whole-pack scavenge leaves, at every crash point.
    "e21.differential_disagreements": 0,
    # E22's accounting identity: per-request disk attribution plus the
    # untraced bucket must balance the drive's own motion counters.
    # The implementation targets exactly 0%; 1% is the most drift any
    # future rounding could justify.
    "e22.attribution_drift_pct": 1,
    # No workload in the smoke run times a client out, so an abandoned
    # trace means a reply path quietly stopped closing conversations.
    "server.traces_abandoned": 0,
}


def counter(metrics, name):
    m = metrics.get(name)
    if m is None or m.get("type") != "counter":
        return None
    return m["value"]


def mean(metrics, name):
    m = metrics.get(name)
    if m is None or m.get("type") != "histogram":
        return None
    return m["mean"]


def p99(metrics, name):
    m = metrics.get(name)
    if m is None or m.get("type") != "histogram":
        return None
    return m.get("p99")


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%.1f" % v
    return str(v)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    if base.get("selection") != fresh.get("selection"):
        sys.exit(
            "selection mismatch: baseline ran %s, fresh ran %s"
            % (base.get("selection"), fresh.get("selection"))
        )

    bm, fm = base["metrics"], fresh["metrics"]
    failures = []
    rows = []  # (name, baseline, current, delta, threshold, verdict)

    def row(name, b, f, delta, threshold, verdict):
        rows.append((name, fmt(b), fmt(f), delta, threshold, verdict))

    def compare(name, b, f, up_is_bad):
        threshold = "%s%d%%" % ("+" if up_is_bad else "-", 100 * THRESHOLD)
        if b is None or f is None:
            row(name, b, f, "-", threshold, "skip (missing)")
            return
        if b < NOISE_FLOOR:
            row(name, b, f, "-", threshold, "skip (noise floor)")
            return
        rel = (f - b) / b
        bad = rel > THRESHOLD if up_is_bad else rel < -THRESHOLD
        row(name, b, f, "%+.2f%%" % (100 * rel), threshold, "REGRESSION" if bad else "ok")
        if bad:
            failures.append(name)

    for name in UP_IS_BAD:
        compare(name, counter(bm, name), counter(fm, name), up_is_bad=True)
    for name in DOWN_IS_BAD:
        compare(name, counter(bm, name), counter(fm, name), up_is_bad=False)
    for name in MEAN_UP_IS_BAD:
        compare(name + ".mean", mean(bm, name), mean(fm, name), up_is_bad=True)
    for name in P99_UP_IS_BAD:
        compare(name + ".p99", p99(bm, name), p99(fm, name), up_is_bad=True)

    for name in EXACT:
        b, f = counter(bm, name), counter(fm, name)
        bad = b != f
        row(name, b, f, "-" if not bad else "moved", "exact", "REGRESSION" if bad else "ok")
        if bad:
            failures.append(name)

    for name, ceiling in ABS_MAX.items():
        f = counter(fm, name)
        if f is None:
            failures.append(name)
            row(name, counter(bm, name), f, "-", "<=%d" % ceiling, "REGRESSION (missing)")
            continue
        bad = f > ceiling
        row(name, counter(bm, name), f, "-", "<=%d" % ceiling, "REGRESSION" if bad else "ok")
        if bad:
            failures.append(name)

    # Sanity: the soak experiment must actually have exercised the retry
    # ladder, and the server experiment must actually have tripped
    # admission control — otherwise the gates above watch silence.
    for name, why in [
        ("disk.retries", "the fault model never fired"),
        ("server.naks", "admission control never refused a request"),
        ("repl.repairs", "the replica audit never repaired a slice"),
        ("e21.torn_points", "no torn-sector crash variant ever fired"),
        ("trace.completed", "no request trace ever completed"),
    ]:
        if not counter(fm, name):
            failures.append(name)
            row(name, counter(bm, name), counter(fm, name), "-", ">0", "REGRESSION (%s)" % why)

    print("bench regression gate: %s vs %s" % (sys.argv[1], sys.argv[2]))
    header = ("metric", "baseline", "current", "delta", "threshold", "verdict")
    widths = [
        max(len(header[i]), max(len(str(r[i])) for r in rows)) for i in range(6)
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print("  " + line)
    print("  " + "  ".join("-" * w for w in widths))
    for r in rows:
        print("  " + "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)))
    if failures:
        print("FAIL: %d watched metric(s) regressed: %s" % (len(failures), ", ".join(failures)))
        sys.exit(1)
    print("PASS: every watched metric is within its gate")


if __name__ == "__main__":
    main()
