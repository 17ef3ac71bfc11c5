"""Maximum matching in bipartite graphs.

The matching drives the color-reuse step of the greedy colorer, whose
colorings depend on exactly which pairs it returns.  It reads the graph's
bitmask rows directly: the next right a left tries is the lowest
unvisited bit of its row.  The per-edge lower bound needs only a
matching's size and counts it with `bounds._matching_size` instead.  The
tests certify both against independent brute-force oracles, and this one
against a recursive reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflict import BipartiteGraph


@dataclass(frozen=True)
class Matching:
    """Pairs of (left position, right position); each position used once."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def max_bipartite_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by augmenting paths (Kuhn).

    Deterministic: left positions are processed in ascending order and
    neighbors tried in ascending right position, which pins down the
    returned matching.  The depth-first search keeps its own stack, so an
    augmenting path may be as long as the graph.
    """
    rows = g.rows
    match_l = [-1] * len(rows)
    match_r = [-1] * len(g.right)
    for root in range(len(rows)):
        # path[k] is the right position stack[k] is trying, whose owner is
        # stack[k + 1]; `visited` holds the rights this root's search saw
        stack = [root]
        path: list[int] = []
        visited = 0
        while stack:
            free = rows[stack[-1]] & ~visited
            if not free:
                stack.pop()
                if path:
                    path.pop()
                continue
            bit = free & -free
            visited |= bit
            r = bit.bit_length() - 1
            path.append(r)
            owner = match_r[r]
            if owner == -1:
                for l, r in zip(stack, path):
                    match_l[l] = r
                    match_r[r] = l
                break
            stack.append(owner)
    pairs = tuple((lp, rp) for lp, rp in enumerate(match_l) if rp != -1)
    return Matching(pairs)
