#!/usr/bin/env python3
"""Gate bench telemetry against the committed baselines.

Usage:
    check_bench_regression.py --fresh DIR [--fresh DIR ...] --baseline DIR
                              [--threshold 0.20] [names...]

Compares BENCH_<name>.json files produced by a fresh bench run (--fresh)
against the committed ones (--baseline). Only *time-like* gauges are
gated — keys ending in one of the COST_SUFFIXES, where bigger means
slower. Throughput-like keys (msgs_per_ms, reuse_ratio, index hits) and
semantic counters (violations, ticks_per_perf) are informational: they
are printed but never fail the gate, since they are either asserted
exactly by the benches themselves or not monotone in "better".

Wall-clock numbers on shared CI runners are noisy, so the default gate
is deliberately loose (20%) and only ever fires on a REGRESSION (fresh
slower than baseline), never on an improvement. Noise on a busy host is
purely additive, which makes the per-gauge MINIMUM the stable
estimator: pass --fresh several times (one directory per repeat run)
and each cost gauge is taken as the min across repeats before the
comparison. The committed baselines are produced the same way
(min-of-N), so both sides of the gate estimate the same quantity.
"""

import argparse
import json
import os
import sys

COST_SUFFIXES = (
    "ns_per_op",
    "us_per_fiber",
    "us_per_perf",
    "ms_per_perf",
    "wall_us_per_perf",
)

# Absolute ceilings, in gauge units. Unlike the relative cost gate,
# these fail whenever the fresh value (min across --fresh repeats)
# exceeds the limit, baseline or no baseline: they encode documented
# guarantees rather than "no slower than last time".
ABS_LIMITS = {
    # docs/OBSERVABILITY.md: an armed flight recorder stays under 3%
    # on the C7 churn workload.
    "flight.overhead_pct": 3.0,
    # docs/ROBUSTNESS.md: budgets/deadlines/backpressure armed but not
    # firing stay under 3% on the performance-churn workload.
    "overload.overhead_pct": 3.0,
    # docs/OBSERVABILITY.md: an armed timeline recorder stays under 3%
    # on the C7 churn workload.
    "timeline.overhead_pct": 3.0,
    # docs/DISTRIBUTION.md: mounting the wire stack (SimTransport +
    # PeerSupervisor + Wire pumps, heartbeats live, no app frames)
    # beside a dense fiber churn stays under 5%.
    "wire.arming_overhead_pct": 5.0,
    # docs/PERFORMANCE.md: TcpTransport arms EPOLLOUT only while a full
    # socket holds output back, so a steady loopback round trip makes
    # no epoll_ctl call (bench_net_wire).
    "tcp.epoll_ctls_per_roundtrip": 0.0,
    # docs/PERFORMANCE.md: a steady-state CSP rendezvous, named or
    # anonymous, performs no heap allocation (C7, counting operator new).
    "rendezvous.named.allocs_per_msg": 0.0,
    "rendezvous.any.allocs_per_msg": 0.0,
    # docs/PERFORMANCE.md: a steady-state enroll -> perform -> release
    # cycle of a 2-role and of a 64-role script allocates nothing (C7).
    "script.pair.allocs_per_perf": 0.0,
    "script.cast64.allocs_per_perf": 0.0,
}


def load_gauges(path):
    """Returns (schema_version, gauges). Files written before the
    registry stamped a schema_version are treated as version 1."""
    with open(path) as f:
        doc = json.load(f)
    return doc.get("schema_version", 1), doc.get("gauges", {})


def is_cost_key(key):
    return any(key.endswith(s) for s in COST_SUFFIXES)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True, action="append",
                    help="directory with freshly produced BENCH_*.json; "
                         "repeat the flag for min-of-N across runs")
    ap.add_argument("--baseline", required=True,
                    help="directory with committed BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional slowdown (default 0.20)")
    ap.add_argument("names", nargs="*",
                    help="bench names (e.g. c6_matcher); default: every "
                         "BENCH_*.json present in --baseline")
    args = ap.parse_args()

    names = args.names
    if not names:
        names = sorted(
            f[len("BENCH_"):-len(".json")]
            for f in os.listdir(args.baseline)
            if f.startswith("BENCH_") and f.endswith(".json"))

    failures = []
    for name in names:
        fname = "BENCH_%s.json" % name
        fresh_paths = [os.path.join(d, fname) for d in args.fresh]
        fresh_paths = [p for p in fresh_paths if os.path.exists(p)]
        base_path = os.path.join(args.baseline, fname)
        if not fresh_paths:
            failures.append("%s: fresh run produced no %s" % (name, fname))
            continue
        if not os.path.exists(base_path):
            print("%-24s NEW (no committed baseline, skipping)" % name)
            continue
        loaded = [load_gauges(p) for p in fresh_paths]
        runs = [gauges for _, gauges in loaded]
        # min across repeats for cost/limit gauges (noise is additive);
        # the last run's value for informational ones.
        fresh = dict(runs[-1])
        for key in fresh:
            if is_cost_key(key) or key in ABS_LIMITS:
                vals = [r[key] for r in runs if key in r]
                fresh[key] = min(vals)
        base_version, base = load_gauges(base_path)
        fresh_version = loaded[-1][0]
        if fresh_version != base_version:
            print("%-24s schema v%d baseline vs v%d fresh (tolerated)"
                  % (name, base_version, fresh_version))
        for key, limit in sorted(ABS_LIMITS.items()):
            if key not in fresh:
                continue
            f = fresh[key]
            if f > limit:
                failures.append("%s: %s is %g, above the absolute limit %g"
                                % (name, key, f, limit))
            print("%-24s %-36s %12g (limit %g)  %s"
                  % (name, key, f, limit,
                     "ABOVE LIMIT" if f > limit else "ok"))
        for key in sorted(base):
            if key not in fresh:
                failures.append("%s: gauge %r vanished" % (name, key))
                continue
            if key in ABS_LIMITS:
                continue  # already gated against its absolute ceiling
            b, f = base[key], fresh[key]
            if not is_cost_key(key):
                print("%-24s %-36s %12g (info)" % (name, key, f))
                continue
            delta = (f - b) / b if b > 0 else 0.0
            verdict = "ok"
            if delta > args.threshold:
                verdict = "REGRESSION"
                failures.append(
                    "%s: %s went %g -> %g (%+.1f%%, limit +%.0f%%)"
                    % (name, key, b, f, delta * 100,
                       args.threshold * 100))
            print("%-24s %-36s %12g -> %-12g %+6.1f%%  %s"
                  % (name, key, b, f, delta * 100, verdict))

    if failures:
        print("\nFAILED bench regression gate:", file=sys.stderr)
        for msg in failures:
            print("  " + msg, file=sys.stderr)
        return 1
    print("\nbench regression gate: all cost gauges within "
          "+%.0f%% of baseline" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
