"""Answers computed without leavitt, from a description's raw edge list.

Each function here is an independent computation of a fact the library
also derives: strongly connected components and simple cycles come from
networkx, path counts and saturated hereditary sets from direct walks
over the edge list.  The workloads compare leavitt's answers against
these; a mismatch marks the op failed.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

OMEGA = "omega"


def digraph(desc) -> nx.DiGraph:
    """Vertices and (source, range) adjacency with summed multiplicities."""
    vertices, edges = desc
    dg = nx.DiGraph()
    dg.add_nodes_from(vertices)
    for _, s, r, m in edges:
        weight = 2 if m == OMEGA else m
        if dg.has_edge(s, r):
            weight += dg[s][r]["weight"]
        dg.add_edge(s, r, weight=weight)
    return dg


def cyclic_vertices(dg: nx.DiGraph) -> set:
    out = set()
    for comp in nx.strongly_connected_components(dg):
        if len(comp) > 1:
            out |= comp
        else:
            (v,) = comp
            if dg.has_edge(v, v):
                out.add(v)
    return out


def doubled_cycles(dg: nx.DiGraph) -> bool:
    """True iff one strongly connected component carries two simple cycles.

    Parallel edges count: a cycle whose steps carry total multiplicity
    w stands for w simple cycles (omega counts as two).  Only the first
    two cycles of each component are ever drawn from networkx.
    """
    comp_of = {}
    for i, comp in enumerate(nx.strongly_connected_components(dg)):
        for v in comp:
            comp_of[v] = i
    seen = {}
    for cycle in nx.simple_cycles(dg):
        weight = 1
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            weight *= dg[u][v]["weight"]
        c = comp_of[cycle[0]]
        seen[c] = seen.get(c, 0) + weight
        if seen[c] >= 2:
            return True
    return False


def growth_doubles(desc, horizon=12) -> bool:
    """Path-growth oracle: some vertex carries two closed walks of one length <= horizon.

    Counts of closed walks are capped at 2 and multiplicities at 2 (omega
    included), which is all the test needs.
    """
    vertices, edges = desc
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    a = [[0] * n for _ in range(n)]
    for _, s, r, m in edges:
        w = 2 if m == OMEGA else min(m, 2)
        a[idx[s]][idx[r]] = min(2, a[idx[s]][idx[r]] + w)
    p = a
    for step in range(horizon):
        if any(p[i][i] >= 2 for i in range(n)):
            return True
        if step + 1 < horizon:
            p = [
                [min(2, sum(p[i][k] * a[k][j] for k in range(n))) for j in range(n)]
                for i in range(n)
            ]
    return False


def singular_vertices(desc) -> list[str]:
    """Sinks and infinite emitters, in declared order."""
    vertices, edges = desc
    out = {v: [] for v in vertices}
    for _, s, _, m in edges:
        out[s].append(m)
    return [v for v in vertices if not out[v] or OMEGA in out[v]]


def sinks(desc) -> list[str]:
    vertices, edges = desc
    sources = {s for _, s, _, _ in edges}
    return [v for v in vertices if v not in sources]


def class_count(desc, dg: nx.DiGraph) -> int | None:
    """Shift-tail class count: singular vertices plus simple cycles; None if uncountable."""
    if doubled_cycles(dg):
        return None
    return len(singular_vertices(desc)) + sum(1 for _ in nx.simple_cycles(dg))


def paths_into(desc, dg: nx.DiGraph, t: str) -> int | None:
    """Number of finite paths ending at ``t``; None when infinitely many."""
    _, edges = desc
    anc = nx.ancestors(dg, t) | {t}
    if anc & cyclic_vertices(dg):
        return None
    if any(m == OMEGA and r in anc for _, _, r, m in edges):
        return None
    count = {t: 1}
    for u in reversed(list(nx.topological_sort(dg.subgraph(anc)))):
        if u != t:
            count[u] = sum(m * count[r] for _, s, r, m in edges if s == u and r in anc)
    return sum(count.values())


def saturated_hereditary_sets(desc) -> list[frozenset]:
    """Every saturated hereditary vertex set, by brute force over all subsets."""
    vertices, edges = desc
    out = {v: [] for v in vertices}
    for _, s, r, m in edges:
        out[s].append((r, m))
    regular = [v for v in vertices if out[v] and all(m != OMEGA for _, m in out[v])]
    found = []
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            h = frozenset(combo)
            if any(r not in h for v in h for r, _ in out[v]):
                continue
            if any(v not in h and all(r in h for r, _ in out[v]) for v in regular):
                continue
            found.append(h)
    return found


def breaking_vertices(desc, h: frozenset) -> list[str]:
    """Infinite emitters outside ``h`` with finitely many, but some, edges leaving ``h``."""
    vertices, edges = desc
    result = []
    for v in vertices:
        if v in h:
            continue
        ms = [m for _, s, _, m in edges if s == v]
        if OMEGA not in ms:
            continue
        escaping = [m for _, s, r, m in edges if s == v and r not in h]
        if escaping and OMEGA not in escaping:
            result.append(v)
    return result


def admissible_pair_count(desc) -> int:
    return sum(2 ** len(breaking_vertices(desc, h)) for h in saturated_hereditary_sets(desc))


def sparse(matrix) -> dict:
    """Nonzero entries of a dense matrix as {(row, column): value}."""
    return {
        (i, j): x for i, row in enumerate(matrix) for j, x in enumerate(row) if x
    }


def sparse_product(a: dict, b: dict) -> dict:
    rows_of_b = {}
    for (k, j), x in b.items():
        rows_of_b.setdefault(k, []).append((j, x))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows_of_b.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + x * y
    return {key: x for key, x in out.items() if x}
