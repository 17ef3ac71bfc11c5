"""Maximum matching in bipartite graphs.

The matching drives the color-reuse step of the greedy colorer and the
per-edge lower bound.  The tests certify it against independent
brute-force oracles and a recursive reference in ``tests/oracles.py``.
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
    n_left, n_right = len(g.left), len(g.right)
    adj: list[list[int]] = [[] for _ in range(n_left)]
    for lp, rp in sorted(g.edges):
        adj[lp].append(rp)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    visited_by = [-1] * n_right  # last root whose search visited each right
    for root in range(n_left):
        # frames[k] = (left, its untried neighbors); path[k] is the right
        # position frames[k] is trying, whose owner is frames[k + 1]
        frames = [(root, iter(adj[root]))]
        path: list[int] = []
        while frames:
            for r in frames[-1][1]:
                if visited_by[r] != root:
                    visited_by[r] = root
                    break
            else:
                frames.pop()
                if path:
                    path.pop()
                continue
            path.append(r)
            owner = match_r[r]
            if owner == -1:
                for (l, _), r in zip(frames, path):
                    match_l[l] = r
                    match_r[r] = l
                break
            frames.append((owner, iter(adj[owner])))
    pairs = tuple((lp, rp) for lp, rp in enumerate(match_l) if rp != -1)
    return Matching(pairs)
