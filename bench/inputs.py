"""Seeded typicality tables for the benchmark workloads.

Feasible tables are drawn the way the test suite's ``feasible_tables``
strategy draws them: normalized marginal weights, deviations centered so the
combined column keeps unit sum, then shrunk to at most 0.9 of the cap that
keeps every row strictly feasible and every entry a probability.  On top of
that the two marginal columns get distinct top exemplars by construction,
because the landscape fit requires them.

A planted-infeasible table pushes one row's deviation past the geometric
mean of its marginals and moves the difference onto the other rows, which
stay strictly feasible, so every entry stays in [0, 1] and every column still
sums to 1.  The program must reject it and name that row.

Draws are never filtered by whether the program accepts them: any table the
program rejects counts as a failed operation.  Only the planted construction
may move on to the next sub-draw, and only when the drawn marginals leave no
room to plant (a mathematical property of the draw, checked here).
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

_WEIGHT_RANGE = (0.05, 1.0)
# Strictly above every drawn weight, so each column has a unique top.
_TOP_WEIGHT = 1.25
_FEASIBLE_MARGIN = 0.9
# The planted row's |deviation| is this multiple of its geometric mean.
_PLANTED_EXCESS = 1.25


@dataclass(frozen=True)
class GeneratedTable:
    """Normalized columns plus the planted-infeasible row, if any (1-based)."""

    names: tuple[str, ...]
    mu_a: tuple[float, ...]
    mu_b: tuple[float, ...]
    mu_ab: tuple[float, ...]
    planted_row: int | None = None

    @property
    def n(self) -> int:
        return len(self.names)

    def to_csv(self) -> str:
        # repr(float(x)): numpy 2 scalars repr as "np.float64(...)", which the
        # CSV parser rightly rejects.
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("exemplar", "mu_a", "mu_b", "mu_ab"))
        for row in zip(self.names, self.mu_a, self.mu_b, self.mu_ab):
            writer.writerow((row[0], *(repr(float(x)) for x in row[1:])))
        return buffer.getvalue()


def _normalized(values: list[float]) -> list[float]:
    total = math.fsum(values)
    return [v / total for v in values]


def _marginals(rng: random.Random, n: int) -> tuple[list[float], list[float]]:
    weights_a = [rng.uniform(*_WEIGHT_RANGE) for _ in range(n)]
    weights_b = [rng.uniform(*_WEIGHT_RANGE) for _ in range(n)]
    top_a, top_b = rng.sample(range(n), 2)
    weights_a[top_a] = _TOP_WEIGHT
    weights_b[top_b] = _TOP_WEIGHT
    return _normalized(weights_a), _normalized(weights_b)


def _deviations(
    rng: random.Random, mu_a: list[float], mu_b: list[float], max_shrink: float
) -> list[float]:
    """Centered deviations shrunk below the feasibility and probability caps."""
    n = len(mu_a)
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    shrink = rng.uniform(0.0, max_shrink)
    geometric = [math.sqrt(a * b) for a, b in zip(mu_a, mu_b)]
    raw = [g * math.cos(t) for g, t in zip(geometric, angles)]
    weight_total = math.fsum(geometric)
    drift = math.fsum(raw)
    centered = [d - (g / weight_total) * drift for d, g in zip(raw, geometric)]
    cap = 1.0
    for a, b, g, c in zip(mu_a, mu_b, geometric, centered):
        if c == 0.0:
            continue
        cap = min(cap, _FEASIBLE_MARGIN * g / abs(c))
        if c > 0.0:
            cap = min(cap, _FEASIBLE_MARGIN * (1.0 - 0.5 * (a + b)) / c)
    return [shrink * cap * c for c in centered]


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"e{k:05d}" for k in range(1, n + 1))


def feasible_table(rng: random.Random, n: int) -> GeneratedTable:
    mu_a, mu_b = _marginals(rng, n)
    deviations = _deviations(rng, mu_a, mu_b, max_shrink=0.9)
    mu_ab = [0.5 * (a + b) + d for a, b, d in zip(mu_a, mu_b, deviations)]
    return GeneratedTable(_names(n), tuple(mu_a), tuple(mu_b), tuple(mu_ab))


def _plant(
    mu_a: list[float], mu_b: list[float], deviations: list[float], row: int, sign: int
) -> list[float] | None:
    """Deviations with ``row`` made infeasible, or None if there is no room."""
    average = [0.5 * (a + b) for a, b in zip(mu_a, mu_b)]
    geometric = [math.sqrt(a * b) for a, b in zip(mu_a, mu_b)]
    target = sign * _PLANTED_EXCESS * geometric[row]
    if not 0.0 <= average[row] + target <= 1.0:
        return None
    shift = target - deviations[row]
    # Room each other row has to absorb -shift while staying within the
    # feasibility margin and inside [0, 1].
    rooms = []
    for k, (avg, g, d) in enumerate(zip(average, geometric, deviations)):
        if k == row:
            rooms.append(0.0)
        elif shift > 0.0:
            rooms.append(max(0.0, min(d + _FEASIBLE_MARGIN * g, avg + d)))
        else:
            rooms.append(max(0.0, min(_FEASIBLE_MARGIN * g - d, 1.0 - avg - d)))
    total = math.fsum(rooms)
    if total <= abs(shift):
        return None
    planted = [d - shift * (room / total) for d, room in zip(deviations, rooms)]
    planted[row] = target
    return planted


def planted_table(rng: random.Random, n: int) -> GeneratedTable:
    """A table whose only infeasible row is ``planted_row``."""
    while True:
        mu_a, mu_b = _marginals(rng, n)
        deviations = _deviations(rng, mu_a, mu_b, max_shrink=0.5)
        rows = rng.sample(range(n), n)
        signs = rng.sample((1, -1), 2)
        for row in rows:
            for sign in signs:
                planted = _plant(mu_a, mu_b, deviations, row, sign)
                if planted is None:
                    continue
                mu_ab = [0.5 * (a + b) + d for a, b, d in zip(mu_a, mu_b, planted)]
                return GeneratedTable(
                    _names(n), tuple(mu_a), tuple(mu_b), tuple(mu_ab), row + 1
                )


def table_scale_input(seed: int, n: int = 2_000) -> GeneratedTable:
    return feasible_table(random.Random(f"table-scale/{seed}"), n)


def many_small_inputs(seed: int, count: int = 1000) -> list[GeneratedTable]:
    """``count`` tables with n uniform in 2..60; every tenth is planted."""
    rng = random.Random(f"many-small/{seed}")
    tables = []
    for i in range(count):
        n = rng.randint(2, 60)
        if i % 10 == 9:
            tables.append(planted_table(rng, n))
        else:
            tables.append(feasible_table(rng, n))
    return tables
