"""Admissible pairs, quotient graphs and ideal graphs.

The graded ideals of the algebra of a graph are parametrized by
admissible pairs (H, S): a saturated hereditary vertex set H together
with a set S of breaking vertices of H.  The quotient by the ideal of
(H, S) is presented by the quotient graph, and the ideal of (H, empty)
is itself presented by the ideal graph, whose extra vertices are the
paths that first enter H through their last edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ContractError, SizeGuardError
from .graph import (
    Bundle,
    Graph,
    breaking_vertices,
    entry_paths,
    is_hereditary,
    is_saturated,
    render_path,
    saturate,
)

PAIR_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class AdmissiblePair:
    """A saturated hereditary set ``h`` with breaking vertices ``s`` of it."""

    h: tuple[str, ...]
    s: tuple[str, ...] = ()


def admissible_pair(g: Graph, h, s=()) -> AdmissiblePair:
    """Validate and order an admissible pair."""
    hset = set(h)
    sset = set(s)
    if not is_hereditary(g, hset):
        raise ContractError("H must be hereditary")
    if not is_saturated(g, hset):
        raise ContractError("H must be saturated")
    allowed = set(breaking_vertices(g, hset))
    if not sset <= allowed:
        raise ContractError(f"S must consist of breaking vertices of H; got {sorted(sset)}")
    return AdmissiblePair(
        tuple(v for v in g.vertices if v in hset),
        tuple(v for v in g.vertices if v in sset),
    )


def _fresh(base: str, taken: set) -> str:
    name = base
    n = 2
    while name in taken:
        name = f"{base}_{n}"
        n += 1
    taken.add(name)
    return name


def quotient_with_map(g: Graph, pair: AdmissiblePair) -> tuple[Graph, dict[str, tuple[str, str]]]:
    """The quotient graph plus a map from its vertices to their origin.

    Each quotient vertex maps to ("real", v) for a surviving vertex of
    the original graph or ("gap", v) for the sink standing in for the gap
    projection of a breaking vertex v outside S.
    """
    pair = admissible_pair(g, pair.h, pair.s)
    hset = set(pair.h)
    gaps = [v for v in breaking_vertices(g, hset) if v not in pair.s]
    kept = [v for v in g.vertices if v not in hset]
    taken = set(kept)
    origin = {v: ("real", v) for v in kept}
    gap_name = {}
    for v in gaps:
        name = _fresh(f"w_{v}", taken)
        gap_name[v] = name
        origin[name] = ("gap", v)
    vertices = tuple(kept) + tuple(gap_name[v] for v in gaps)
    bundles = [b for b in g.bundles if b.range not in hset]
    bundle_names = {b.name for b in bundles}
    for b in g.bundles:
        if b.range in gap_name:
            name = _fresh(f"f_{b.name}", bundle_names)
            bundles.append(Bundle(name, b.source, gap_name[b.range], b.multiplicity))
    return Graph(vertices, tuple(bundles)), origin


def quotient_graph(g: Graph, pair: AdmissiblePair) -> Graph:
    """The graph presenting the quotient by the ideal of ``pair``.

    Vertices outside H survive, plus one new sink per breaking vertex of
    H not in S; every edge whose range lies outside H survives, and every
    edge into a breaking vertex outside S is duplicated toward that
    vertex's new sink.
    """
    return quotient_with_map(g, pair)[0]


def ideal_graph(g: Graph, h) -> Graph:
    """The graph presenting the ideal generated by the hereditary set ``h``.

    ``h`` is saturated internally.  The result keeps the saturation and
    its internal edges, and adjoins one source vertex per path that first
    enters the saturation through its last edge, with a single edge from
    that vertex to the path's range.
    """
    hset = set(h)
    if not is_hereditary(g, hset):
        raise ContractError("ideal graphs are built from hereditary sets")
    hbar = saturate(g, hset)
    entries = entry_paths(g, hbar, "the saturation")
    taken = set(hbar)
    bundles = [b for b in g.bundles if b.source in taken]
    # bundle names never contain '#', so this keeps entry names valid
    entry_names = [(_fresh(render_path(g, p).replace("#", "_"), taken), p) for p in entries]
    bundle_names = {b.name for b in bundles}
    for name, p in entry_names:
        ename = _fresh(name, bundle_names)
        bundles.append(Bundle(ename, name, g.path_range(p), 1))
    return Graph(hbar + tuple(n for n, _ in entry_names), tuple(bundles))


def enumerate_admissible_pairs(g: Graph) -> tuple[AdmissiblePair, ...]:
    """Every admissible pair, ordered by (|H|, H, |S|, S) in vertex order.

    Guarded: refuses graphs with more than PAIR_ENUMERATION_LIMIT
    vertices, since the enumeration walks all vertex subsets.
    """
    n = len(g.vertices)
    if n > PAIR_ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"admissible-pair enumeration is limited to {PAIR_ENUMERATION_LIMIT} vertices; "
            f"graph has {n}"
        )
    pairs = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            h = tuple(g.vertices[i] for i in combo)
            if not (is_hereditary(g, h) and is_saturated(g, h)):
                continue
            br = breaking_vertices(g, h)
            for ssize in range(len(br) + 1):
                for scombo in combinations(br, ssize):
                    pairs.append(AdmissiblePair(h, tuple(scombo)))
    return tuple(pairs)
