"""Maximum matching in bipartite graphs: one augmenting-path search
(`_augment`, Kuhn's) with two callers.

Graphs are bitmask rows: bit rp of ``rows[lp]`` joins left lp to right
rp.  The greedy colorer's color reuse depends on exactly which pairs it
gets, so `max_bipartite_matching` searches from every left in ascending
order.  The per-edge lower bound needs only a size: `_matching_size`
takes a greedy warm start and searches from the lefts it left unmatched.
The tests certify both against brute-force oracles, and the pairs
against a recursive reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .conflict import BipartiteGraph


@dataclass(frozen=True)
class Matching:
    """Pairs of (left position, right position); each position used once."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def _augment(
    rows: Sequence[int], match_r: list[int], free_count: int, roots: Iterable[int]
) -> int:
    """Search for an augmenting path from each left of `roots` in order,
    growing `match_r` (right → left, -1 if free); returns the count of
    rights still free.

    Rights are tried lowest first over an explicit stack, so a path may
    be as long as the graph.  A failed search changes nothing and proves
    that no right it visited leads to a free right, so those stay visited
    and the next search finds the path a fresh one would; the mask is
    cleared after each success.  With no right free, no search can succeed.
    """
    visited = 0
    for root in roots:
        if not free_count:
            break
        # path[k] is the right position stack[k] is trying, whose owner is
        # stack[k + 1]
        stack = [root]
        path: list[int] = []
        while stack:
            m = rows[stack[-1]] & ~visited
            if not m:
                stack.pop()
                if path:
                    path.pop()
                continue
            bit = m & -m
            visited |= bit
            r = bit.bit_length() - 1
            path.append(r)
            owner = match_r[r]
            if owner == -1:
                for lp, rp in zip(stack, path):
                    match_r[rp] = lp
                free_count -= 1
                visited = 0
                break
            stack.append(owner)
    return free_count


def max_bipartite_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching (Kuhn), deterministic: lefts searched
    from in ascending order and rights tried in ascending order pin down
    the pairs, returned by ascending left."""
    match_r = [-1] * len(g.right)
    _augment(g.rows, match_r, len(match_r), range(len(g.rows)))
    pairs = sorted((lp, rp) for rp, lp in enumerate(match_r) if lp != -1)
    return Matching(tuple(pairs))


def _matching_size(rows: Sequence[int], free: int) -> int:
    """Size of a maximum matching from `rows` into the rights whose bits
    are set in `free` (no row has a bit outside it), its pairs free to
    differ from `max_bipartite_matching`'s: each left first takes the
    lowest free right of its row, then the lefts left over are searched
    from.  The rights are positions ``0..n-1`` (`free` is ``2**n - 1``) on
    complement rows, subtree indices on rows read from a conflict graph."""
    match_r = [-1] * free.bit_length()
    n_right = free.bit_count()
    unmatched = []
    for lp, row in enumerate(rows):
        m = row & free
        if m:
            bit = m & -m
            free ^= bit
            match_r[bit.bit_length() - 1] = lp
        else:
            unmatched.append(lp)
    free_count = n_right - len(rows) + len(unmatched)
    return n_right - _augment(rows, match_r, free_count, unmatched)
