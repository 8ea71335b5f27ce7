"""Test-only oracle: the set-based Fig. 15 group scheduler.

This is the original ``schedule_group`` of :mod:`repro.core.scheduling`,
which scored candidates with ``Tag.dot`` — a Python loop over the
smaller tag's chunk set — through one ``min(..., key=...)`` per pick.
The production scheduler replaced it with Python-int bitmasks and
``bit_count``; the differential tests run both on the same inputs and
require identical schedules.  ``dot`` below is a copy of the original
``Tag.dot``, so the oracle does not move when :class:`Tag` does.  Kept
out of ``src/`` on purpose: it is a reference, not a second
implementation.
"""

from repro.telemetry import get_registry


def dot(a, b) -> int:
    """``Λi • Λj`` as the original ``Tag.dot`` computed it."""
    if a.nbits != b.nbits:
        raise ValueError(f"tag widths differ: {a.nbits} != {b.nbits}")
    small, large = (
        (a.chunks, b.chunks) if len(a.chunks) <= len(b.chunks) else (b.chunks, a.chunks)
    )
    return sum(1 for c in small if c in large)


def schedule_group_sets(client_chunks, pool, alpha, beta):
    """Schedule one I/O-cache group of clients (Fig. 15 inner loop)."""
    n = len(client_chunks)
    remaining = [list(c) for c in client_chunks]
    schedules = [[] for _ in range(n)]
    counts = [0] * n

    def tag(m):
        return pool[m].tag

    def take(i, m):
        remaining[i].remove(m)
        schedules[i].append(m)
        counts[i] += pool[m].size

    def best(i, score):
        # max score; ties by lowest pool index for determinism
        return min(remaining[i], key=lambda m: (-score(m), m))

    while any(remaining):
        progressed = False
        for i in range(n):
            if not remaining[i]:
                continue
            if i == 0 and not schedules[i]:
                take(i, min(remaining[i], key=lambda m: (tag(m).popcount(), m)))
                progressed = True
            elif i > 0 and not schedules[i]:
                prev = schedules[i - 1]
                if prev:
                    x = tag(prev[-1])
                    take(i, best(i, lambda m: alpha * dot(tag(m), x)))
                else:
                    take(i, min(remaining[i], key=lambda m: (tag(m).popcount(), m)))
                progressed = True
            elif i == 0:
                while remaining[i] and counts[i] < counts[n - 1]:
                    y = tag(schedules[i][-1])
                    take(i, best(i, lambda m: beta * dot(tag(m), y)))
                    progressed = True
            else:
                while remaining[i] and counts[i] < counts[i - 1]:
                    y = tag(schedules[i][-1])
                    prev = schedules[i - 1]
                    x = tag(prev[-1]) if prev else y
                    take(
                        i,
                        best(
                            i,
                            lambda m: alpha * dot(tag(m), x) + beta * dot(tag(m), y),
                        ),
                    )
                    progressed = True
        if not progressed:
            get_registry().counter("scheduling.forced").inc()
            i = min((j for j in range(n) if remaining[j]), key=lambda j: counts[j])
            if schedules[i]:
                y = tag(schedules[i][-1])
                take(i, best(i, lambda m: beta * dot(tag(m), y)))
            else:
                take(i, min(remaining[i], key=lambda m: (tag(m).popcount(), m)))
    return schedules
