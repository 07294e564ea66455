"""Index ranking in the 2D (time gain, money gain) space (Section 5.1).

Indexes with positive time *and* money gain are beneficial; among them,
higher weighted gain (Equation 3) is preferred — the "lighter areas" of
Figure 4, whose angle is set by α. Non-beneficial indexes (any
non-positive component, like X1..X4 in the figure) are excluded.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.tuning.gain import IndexGain


class Classified(NamedTuple):
    """One decision's gains sorted into Algorithm 1's two lists."""

    #: Beneficial indexes, best first (:func:`rank_indexes`).
    ranked: list[IndexGain]
    #: Deletable indexes, in deletion order (:func:`deletable_indexes`).
    deletable: list[IndexGain]
    #: Each gain's :meth:`IndexGain.flags`, by index name.
    flags: dict[str, tuple[bool, bool]]


def classify(gains: Iterable[IndexGain]) -> Classified:
    """Rank and flag one decision's gains, evaluating each gain's two
    Algorithm 1 flags once.

    The beneficial indexes are sorted by decreasing combined gain, ties
    broken by time gain, then money gain, then name (for deterministic
    experiments). The deletable ones are sorted by (most-negative
    combined gain, name): deletion order is a stable function of the
    gains, never of dict insertion order.
    """
    ranked: list[IndexGain] = []
    deletable: list[IndexGain] = []
    flags: dict[str, tuple[bool, bool]] = {}
    for g in gains:
        build, drop = flags[g.index_name] = g.flags()
        if build:
            ranked.append(g)
        if drop:
            deletable.append(g)
    ranked.sort(
        key=lambda g: (
            -g.combined_dollars,
            -g.time_gain_quanta,
            -g.money_gain_dollars,
            g.index_name,
        )
    )
    deletable.sort(key=lambda g: (g.combined_dollars, g.index_name))
    return Classified(ranked, deletable, flags)


def rank_indexes(gains: list[IndexGain]) -> list[IndexGain]:
    """Beneficial indexes sorted by decreasing combined gain."""
    return classify(gains).ranked


def deletable_indexes(gains: list[IndexGain]) -> list[IndexGain]:
    """Indexes whose time and money gains are both non-positive, in
    deletion order."""
    return classify(gains).deletable
