"""Pure logic of the benchmark: percentiles from raw samples, the tail
report, open-loop schedules, the ladder's sustained-rate decision and the
compare verdict. Kept free of I/O so that test_stats.py covers all of it."""

import math
import random
import statistics

INF = float("inf")

# Percentiles the tail report considers, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def rank(q, n):
    """1-based nearest rank of percentile q among n samples (the epsilon
    keeps e.g. 99.9% of 10000 at rank 9990 despite binary rounding)."""
    return min(max(math.ceil(q / 100.0 * n - 1e-9), 1), n)


def percentile(samples, q):
    """Nearest-rank percentile (q in [0, 100]) of raw samples.

    A failed operation is passed as math.inf, so it ranks above every
    success and counts as missing any latency limit. Returns inf for an
    empty sample."""
    if not samples:
        return INF
    v = sorted(samples)
    return v[rank(q, len(v)) - 1]


def tail(samples):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND
    samples above its rank: (q, value, samples_beyond), or None."""
    n = len(samples)
    for q in TAIL_CANDIDATES:
        beyond = n - rank(q, n)
        if beyond >= TAIL_MIN_BEYOND:
            return q, percentile(samples, q), beyond
    return None


def latencies(raw_ms):
    """Driver latencies to samples: a negative entry (refused or failed)
    becomes inf."""
    return [INF if v is None or v < 0 else v for v in raw_ms]


def poisson_schedule(rate, seconds, seed, name):
    """Open-loop Poisson arrivals at `rate` per second for `seconds`.

    Returns [(offset_ns, pick)], pick being a uniform draw in [0, 1) that
    selects the request's shape. The same (seed, name) always gives the
    same schedule; nothing in it depends on anything measured."""
    rng = random.Random(f"perfbench:{seed}:{name}")
    out = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append((int(t * 1e9), rng.random()))


def rung_p99(lat_ms, limit_ms, miss_cap):
    """A ladder rung's p99 for the decision: the cap if any request was
    refused, otherwise the median of the p99s of the rung's three
    consecutive thirds (in due order), capped. A growing backlog fails the
    later two thirds; one stall of a shared host fails only one."""
    samples = latencies(lat_ms)
    cap = limit_ms * miss_cap
    if not samples or any(math.isinf(v) for v in samples):
        return cap
    n = len(samples)
    thirds = sorted(percentile(samples[i * n // 3:(i + 1) * n // 3], 99)
                    for i in range(3))
    return min(thirds[1], cap)


def sustained_rps(steps, limit_ms, miss_cap=10.0):
    """The highest rate of the fixed ladder that meets the p99 limit.

    `steps` is [(rate, lat_ms)] in ladder order, lat_ms timed from each
    request's due time (so a growing backlog shows as growing latency). A
    rung passes when nothing was refused and its p99 <= limit. The answer
    is the highest passing rung, interpolated in log-log space toward the
    rung above it (where p99 crosses the limit), so that it moves with the
    measured latency instead of jumping between rungs. If no rung above it
    was run, the passing rate itself is returned; if none passes, the
    lowest rate scaled by limit / p99."""
    if not steps:
        return 0.0
    p99 = [(rate, rung_p99(lat, limit_ms, miss_cap)) for rate, lat in steps]
    passing = [i for i, (_, p) in enumerate(p99) if p <= limit_ms]
    if not passing:
        rate, p = p99[0]
        return rate * min(1.0, limit_ms / p)
    last = passing[-1]
    if last == len(p99) - 1:
        return p99[last][0]
    (r0, p0), (r1, p1) = p99[last], p99[last + 1]
    p0 = max(p0, 1e-9)
    f = (math.log(limit_ms) - math.log(p0)) / (math.log(p1) - math.log(p0))
    return r0 * (r1 / r0) ** min(max(f, 0.0), 1.0)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else INF


def verdict(parent, change, better, bound):
    """Compare two sets of runs of one (workload, metric).

    improved   -- the change wins at least 9 in 10 of the paired runs (ties
                  count for neither) and the medians differ by more than
                  the parent's own inter-quartile spread;
    regressed  -- the change's median is worse by more than `bound` (a
                  share of the parent's median) and the runs resolve it;
    unresolved -- the run-to-run spread is wider than `bound`, so neither
                  a regression nor "no change" can be told apart from noise
                  (unless every change run beats every parent run);
    unchanged  -- otherwise."""
    if not parent or not change:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    q1p, mp, q3p = quartiles(parent)
    _, mc, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= 0.9 * len(pairs) and sign * (mc - mp) > (q3p - q1p):
        return "improved"
    worse = -sign * (mc - mp) / abs(mp) if mp else 0.0
    noisy = max(rel_spread(parent), rel_spread(change)) > bound
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if noisy and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "unchanged"
