"""0/1 knapsack via LP relaxation and branch-and-bound (Algorithm 3).

Assigning build-index operators to one idle slot is a 0/1 knapsack:
maximise the total gain of the selected operators subject to their total
execution time fitting the slot. Algorithm 3 solves the LP relaxation
(weights in [0, 1]) and branches to integrality. The relaxation of a
knapsack is solved greedily by gain density (the classic Dantzig bound),
which is also the fractional bound used to prune branches.

Performance: this solver sits on the service hot path — one knapsack
per idle slot per skyline point per dataflow arrival — and profiles as
the single most expensive call of a simulated day. Three layers keep it
fast without changing a single result:

* the branch-and-bound core walks parallel ``sizes``/``gains`` arrays
  (the float accumulation order of the original per-item loop is
  preserved exactly, so bounds, prunes and incumbents are bit-identical
  to the naive reference kept in ``tests/differential/oracle.py``);
* the search stops as soon as its incumbent is provably optimal. The
  per-partition builds of one index are identical items, and on
  identical items the Dantzig bound never closes the integrality gap,
  so without a proof the search spends its whole ``max_nodes`` budget
  re-proving the answer of its first dive. Before the search, a small
  class-level search over runs of identical (size, gain) items finds
  the ceiling: the largest gain any node can hold, computed with the
  DFS's own float folds and fit test. A node's gain is that fold over
  the items it took, and within a run only their number matters. The
  DFS replaces its incumbent only on a strictly greater gain, so once
  the incumbent reaches the ceiling no later node can change the
  answer — capped or not, the result is the one the full search
  returns. The class search has a budget linear in the item count;
  past it the ceiling is unknown and the search runs as before, so
  inputs without repeated items pay almost nothing;
* whole solves are memoised in a bounded LRU keyed by the exact
  ``(capacity, max_nodes, items)`` inputs. The solution is a pure
  function of that key, so a hit returns the byte-identical result the
  solver would recompute — the skyline's schedules repeatedly expose
  the same idle-slot sizes to the same candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.perf import CacheStats, LRUMemo


@dataclass(frozen=True)
class KnapsackItem:
    """One candidate build-index operator for a slot."""

    item_id: int
    size: float
    gain: float

    def __post_init__(self) -> None:
        if self.size < 0 or self.gain < 0:
            raise ValueError("item size and gain must be non-negative")


@dataclass(frozen=True)
class KnapsackSolution:
    """Selected item ids, their total gain, and the LP upper bound.

    ``capped`` reports that the search used up ``max_nodes`` (nodes
    past the cap are not expanded, so the incumbent may be suboptimal).
    It describes the search, not the answer, and takes no part in
    equality.
    """

    selected: tuple[int, ...]
    total_gain: float
    total_size: float
    lp_bound: float
    capped: bool = field(default=False, compare=False)


def fractional_bound(items: list[KnapsackItem], capacity: float) -> float:
    """Optimal value of the LP relaxation (items sorted by density)."""
    remaining = capacity
    value = 0.0
    for item in sorted(items, key=_density, reverse=True):
        if item.size <= 0:
            value += item.gain
            continue
        if item.size <= remaining:
            value += item.gain
            remaining -= item.size
        else:
            value += item.gain * (remaining / item.size)
            break
    return value


def _density(item: KnapsackItem) -> float:
    if item.size <= 0:
        return float("inf")
    return item.gain / item.size


#: Bounded memo of whole solves. Values are pure functions of their
#: keys, so the bound trades only speed, never results.
_MEMO_STATS = CacheStats()
_SOLVE_MEMO: LRUMemo[KnapsackSolution] = LRUMemo(maxsize=4096, stats=_MEMO_STATS)


def knapsack_cache_stats() -> CacheStats:
    """Hit/miss counters of the solve memo (for obs export and tests)."""
    return _MEMO_STATS


def clear_knapsack_cache() -> None:
    """Drop all memoised solves (benchmarks measure cold vs warm)."""
    _SOLVE_MEMO.clear()


def reset_knapsack_cache() -> None:
    """Drop memoised solves AND zero the counters.

    The memo is process-global; a service run resets it on entry so its
    exported ``cache/knapsack`` metrics are a pure function of the run's
    config and seed (two same-seed runs in one process must produce
    byte-identical artifacts, including cache counters).
    """
    _SOLVE_MEMO.clear()
    _MEMO_STATS.reset()


def export_knapsack_cache() -> dict[str, object]:
    """The memo's full state (entries + counters), for crash snapshots.

    The memo is process-global and its counters are published into the
    run's observability artifacts, so a byte-identical resume must carry
    the cache across the crash exactly — entries (same hits downstream)
    and stats (same exported ``cache/knapsack`` totals) both.
    """
    return {
        "entries": _SOLVE_MEMO.export_entries(),
        "stats": _MEMO_STATS.snapshot(),
    }


def restore_knapsack_cache(state: dict[str, object]) -> None:
    """Reinstall a state captured by :func:`export_knapsack_cache`."""
    entries = state["entries"]
    stats = state["stats"]
    assert isinstance(entries, list) and isinstance(stats, dict)
    _SOLVE_MEMO.restore_entries(entries)
    _MEMO_STATS.restore(stats)


def solve_knapsack(
    items: list[KnapsackItem],
    capacity: float,
    max_nodes: int = 200_000,
) -> KnapsackSolution:
    """Branch-and-bound 0/1 knapsack with the Dantzig fractional bound.

    Items are explored in density order; each node either takes or skips
    the next item, and subtrees whose fractional bound cannot beat the
    incumbent are pruned. ``max_nodes`` caps the search (the incumbent —
    at least as good as greedy — is returned if the cap is hit, keeping
    worst-case latency bounded for the scheduler's inner loop, and the
    solution reports ``capped``). The search ends early once no node
    can beat the incumbent.

    The solution is memoised on the exact inputs; see the module
    docstring for why a hit is byte-identical to a recompute and why
    the early end returns what the full search would.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    key = (capacity, max_nodes, tuple((it.item_id, it.size, it.gain) for it in items))
    cached = _SOLVE_MEMO.get(key)
    if cached is not None:
        return cached
    solution = _solve_uncached(items, capacity, max_nodes)
    _SOLVE_MEMO.put(key, solution)
    return solution


def _bound_sorted(sizes: list[float], gains: list[float], capacity: float) -> float:
    """Dantzig bound over already density-sorted parallel arrays.

    The loop body is branch-for-branch the one in
    :func:`fractional_bound`; on pre-sorted input (a stable re-sort is
    the identity) the accumulated float is bit-identical.
    """
    remaining = capacity
    value = 0.0
    for size, gain in zip(sizes, gains):
        if size <= 0:
            value += gain
            continue
        if size <= remaining:
            value += gain
            remaining -= size
        else:
            value += gain * (remaining / size)
            break
    return value


def _solve_uncached(
    items: list[KnapsackItem],
    capacity: float,
    max_nodes: int,
) -> KnapsackSolution:
    """Fit filter and density order, then the branch-and-bound core.

    Bit-exactness contract: every float accumulation below happens in
    the same order, over the same values, as the reference
    implementation (``tests/differential/oracle.py``) — the parallel
    arrays and linked-list paths are pure data-structure swaps.
    """
    fit = [it for it in items if it.size <= capacity + 1e-12]
    if not fit:
        return KnapsackSolution(selected=(), total_gain=0.0, total_size=0.0, lp_bound=0.0)
    order = sorted(fit, key=_density, reverse=True)
    sizes = [it.size for it in order]
    gains = [it.gain for it in order]
    ids = [it.item_id for it in order]
    return _solve_sorted(sizes, gains, ids, capacity, max_nodes)


def _solve_sorted(
    sizes: list[float],
    gains: list[float],
    ids: list[int],
    capacity: float,
    max_nodes: int,
) -> KnapsackSolution:
    """Branch-and-bound core over density-sorted parallel arrays."""
    lp_bound = _bound_sorted(sizes, gains, capacity)
    n = len(sizes)
    # On distinct items the class search is the 0/1 knapsack itself; a
    # budget linear in n keeps its cost there negligible next to the
    # DFS, and 2n + 2 covers every identical-item proof of a real run.
    ceiling = _take_fold_ceiling(sizes, gains, capacity + 1e-12, 2 * n + 2)

    # No shortcut for the everything-fits case: the reference prune can
    # legitimately return a *subset* there (zero-gain items are skipped
    # once the bound ties the incumbent), and take-branch-first resolves
    # it in ~2n nodes anyway.
    best_gain = -1.0
    best_path: tuple | None = None
    best_size = 0.0
    nodes = 0

    # Depth-first, take-branch-first finds good incumbents fast; the
    # pre-sorted arrays make each suffix bound a single linear walk.
    # Chosen sets are persistent cons-lists (item_id, parent) so a push
    # is O(1); the incumbent path is only materialised on return.
    stack: list[tuple[int, float, float, tuple | None]] = [(0, 0.0, 0.0, None)]
    while stack:
        depth, used, gain, path = stack.pop()
        nodes += 1
        if gain > best_gain:
            best_gain, best_path, best_size = gain, path, used
            if best_gain >= ceiling:
                # No node left can fold a larger gain, and only a
                # strictly larger one would replace the incumbent.
                break
        if depth >= n or nodes > max_nodes:
            continue
        # Dantzig bound over order[depth:] (already density-sorted).
        room = capacity - used
        bound = gain
        for i in range(depth, n):
            size = sizes[i]
            if size <= 0:
                bound += gains[i]
            elif size <= room:
                bound += gains[i]
                room -= size
            else:
                bound += gains[i] * (room / size)
                break
        if bound <= best_gain + 1e-12:
            continue
        # Skip branch pushed first so the take branch is explored first.
        stack.append((depth + 1, used, gain, path))
        size = sizes[depth]
        if used + size <= capacity + 1e-12:
            stack.append((depth + 1, used + size, gain + gains[depth], (ids[depth], path)))

    selected: list[int] = []
    node = best_path
    while node is not None:
        selected.append(node[0])
        node = node[1]
    selected.reverse()
    return KnapsackSolution(
        selected=tuple(selected),
        total_gain=max(best_gain, 0.0),
        total_size=best_size,
        lp_bound=lp_bound,
        capped=nodes > max_nodes,
    )


#: Relative slack of the ceiling search's prune bound. Rounding moves a
#: fold or a Dantzig walk over at most ``_CEILING_MAX_ITEMS`` items by
#: under 2e-10 of its value (~2^-53 per operation), so the padded bound
#: stays above every float the DFS can fold.
_CEILING_SLACK = 1e-9
_CEILING_MAX_ITEMS = 100_000


def _take_fold_ceiling(
    sizes: list[float], gains: list[float], limit: float, budget: int
) -> float:
    """The largest gain any node of the DFS can hold, or ``inf``.

    A node's gain is the left fold ``((0.0 + g_a) + g_b) + ...`` of the
    items its path took in sorted order, each admitted while the size
    fold ``used + size`` stays ``<= limit``. Within a run of identical
    (size, gain) items only *how many* were taken matters, so the
    maximum over all paths is a search over one count per run: a small
    branch-and-bound that tries counts largest first, lets the last run
    take all that fit (folding non-negative floats is monotone), and
    prunes a count when a slack-padded real Dantzig bound shows it
    cannot beat the best fold so far. Every node, fold step and bound
    step is charged to ``budget``; once it is spent the ceiling is
    unknown and ``inf`` (which never ends the DFS early) is returned.
    """
    if len(sizes) > _CEILING_MAX_ITEMS:
        return math.inf
    run_sizes: list[float] = []
    run_gains: list[float] = []
    run_counts: list[int] = []
    previous: tuple[float, float] | None = None
    for item in zip(sizes, gains):
        if item != previous:
            if item[0] < 0 or item[1] < 0:
                return math.inf  # the monotonicity arguments need both >= 0
            run_sizes.append(item[0])
            run_gains.append(item[1])
            run_counts.append(0)
            previous = item
        run_counts[-1] += 1
    last = len(run_sizes) - 1
    room_pad = limit * _CEILING_SLACK
    best = 0.0
    steps = 0
    # (next run, size fold, gain fold) after a choice of counts.
    stack: list[tuple[int, float, float]] = [(0, 0.0, 0.0)]
    while stack:
        run, used, gain = stack.pop()
        steps += 1
        room = limit - used + room_pad
        value = 0.0
        for k in range(run, last + 1):
            steps += 1
            size, count = run_sizes[k], run_counts[k]
            if size <= 0:
                value += run_gains[k] * count
            elif size * count <= room:
                value += run_gains[k] * count
                room -= size * count
            else:
                value += run_gains[k] * (room / size)
                break
        if (gain + value) * (1.0 + _CEILING_SLACK) <= best:
            continue
        if steps > budget:
            return math.inf
        size, unit = run_sizes[run], run_gains[run]
        # Zero-gain items never raise the fold: taking none dominates.
        count = run_counts[run] if unit > 0 else 0
        folds = [(used, gain)]
        while len(folds) <= count and used + size <= limit:
            used, gain = used + size, gain + unit
            folds.append((used, gain))
        steps += len(folds) - 1
        if run == last:
            best = max(best, gain)
        elif size <= 0:
            # Zero-size items cost no room: taking them all dominates.
            stack.append((run + 1, used, gain))
        else:
            stack.extend((run + 1, u, g) for u, g in folds)
    return best


def solve_knapsack_greedy(items: list[KnapsackItem], capacity: float) -> KnapsackSolution:
    """Density-greedy knapsack (used as a fast fallback and in tests)."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    selected: list[int] = []
    used = 0.0
    gain = 0.0
    for item in sorted(items, key=_density, reverse=True):
        if item.size <= capacity - used + 1e-12:
            selected.append(item.item_id)
            used += item.size
            gain += item.gain
    return KnapsackSolution(
        selected=tuple(selected),
        total_gain=gain,
        total_size=used,
        lp_bound=fractional_bound(items, capacity),
    )
