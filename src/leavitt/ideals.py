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

from .errors import ContractError, InternalInvariantError, SizeGuardError
from .graph import (
    Bundle,
    Graph,
    VertexClass,
    _breaking_vertices,
    _check_subset,
    _entry_exits,
    _hereditary,
    _known_subset,
    _ordered,
    _paths_ending,
    _restricted,
    _rounds,
    _saturated,
    render_path,
)

PAIR_ENUMERATION_LIMIT = 20

# The graph with no vertices, returned for every derived graph that is empty.
_EMPTY = Graph(())


@dataclass(frozen=True)
class AdmissiblePair:
    """A saturated hereditary set ``h`` with breaking vertices ``s`` of it."""

    h: tuple[str, ...]
    s: tuple[str, ...] = ()


def admissible_pair(g: Graph, h, s=()) -> AdmissiblePair:
    """Validate and order an admissible pair."""
    return _checked_pair(g, h, s)[0]


def _certified(g: Graph, h) -> tuple[frozenset[int], list[int]] | None:
    """The positions of ``h`` and of its breaking vertices, if recorded when ``h`` was listed.

    ``enumerate_admissible_pairs`` records them.  Only a tuple equal to a
    listed H matches, so one in vertex order; for any other ``h`` (a list,
    another order, a set never listed on this instance) it gives None, and
    the caller checks ``h`` in full.
    """
    listed = g.__dict__.get("_certified")
    if listed is None or type(h) is not tuple:
        return None
    try:
        return listed.get(h)
    except TypeError:  # an unhashable member: the full check refuses it as an unknown vertex
        return None


def _checked_pair(g: Graph, h, s) -> tuple[AdmissiblePair, tuple[str, ...]]:
    """``admissible_pair`` plus the breaking vertices of ``h``, validating ``h`` once."""
    hs, breaking = _certified(g, h) or (_check_subset(g, h), None)
    ss = _known_subset(g, s)
    if breaking is None:
        if not _hereditary(g, hs):
            raise ContractError("H must be hereditary")
        if not _saturated(g, hs):
            raise ContractError("H must be saturated")
        breaking = _breaking_vertices(g, hs)
        h = _ordered(g, hs)
    if ss is None or not ss.issubset(breaking):
        got = sorted(set(s), key=str)  # as text: a name that is no str cannot break the sort
        raise ContractError(f"S must consist of breaking vertices of H; got {got}")
    return AdmissiblePair(h, _ordered(g, ss)), _ordered(g, breaking)


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
    projection of a breaking vertex v outside S.  When H is empty the
    quotient is ``g`` itself, and when H is every vertex it is the empty
    graph; the map is a new dict on every call.
    """
    if not isinstance(pair, AdmissiblePair):
        raise ContractError(f"a quotient is taken by an AdmissiblePair, not {pair!r}")
    pair, breaking = _checked_pair(g, pair.h, pair.s)
    if not pair.h:
        # Every infinite emitter has an omega bundle escaping the empty set, so
        # nothing breaks it (S is empty too), no gap sink is added and every
        # vertex and bundle survives in declared order: the quotient is g.
        return g, {v: ("real", v) for v in g.vertices}
    if len(pair.h) == len(g.vertices):
        # Nothing escapes V, so no vertex breaks it: no survivor, no gap sink.
        return _EMPTY, {}
    hset = set(pair.h)
    gaps = [v for v in breaking if v not in pair.s]
    survivors = [i for i, v in enumerate(g.vertices) if v not in hset]
    kept = [g.vertices[i] for i in survivors]
    taken = set(kept)
    origin = {v: ("real", v) for v in kept}
    gap_name = {}
    # "w_" or "f_" and an identifier concatenate to an identifier, and _fresh
    # keeps the names distinct
    for v in gaps:
        name = _fresh(f"w_{v}", taken)
        gap_name[v] = name
        origin[name] = ("gap", v)
    vertices = tuple(kept) + tuple(gap_name[v] for v in gaps)
    # H is hereditary, so a bundle with range outside H has its source outside
    # H, and each component and each cycle lies wholly inside H or outside it:
    # the survivors keep every bundle between them.  A survivor keeps its path
    # count, because a path that ends outside H never enters H.  A gap sink
    # takes the count of its breaking vertex v: its bundles copy those into v,
    # and if v lies on a cycle, the cycle's bundle into v comes from a vertex
    # with infinitely many paths.
    bundles = [b for b in g.bundles if b.range not in hset]
    bundle_names = {b.name for b in bundles}
    for b in g.bundles:
        if b.range in gap_name:
            name = _fresh(f"f_{b.name}", bundle_names)
            bundles.append(Bundle(name, b.source, gap_name[b.range], b.multiplicity))
    return _restricted(g, survivors, vertices, tuple(bundles)), origin


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
    that vertex to the path's range.  When the saturation is every vertex
    the result is ``g`` itself, and when it is empty the empty graph.
    """
    listed = _certified(g, h)
    if listed is None:
        hs = _check_subset(g, h)
        if not _hereditary(g, hs):
            raise ContractError("ideal graphs are built from hereditary sets")
    # a listed saturated hereditary set is its own saturation
    hs = _rounds(g, hs) if listed is None else listed[0]
    if len(hs) == len(g.vertices):
        # No bundle enters V, so there is no entry vertex, and every bundle
        # has its source in V: the vertices and bundles are g's, in order.
        return g
    if not hs:
        # No bundle has its source in, or enters, the empty set.
        return _EMPTY
    exits = _entry_exits(g, hs, "the saturation")  # refuses before anything is built
    h = _ordered(g, hs)
    taken, entries = set(h), []
    bundles = [b for b in g.bundles if b.source in taken]
    bundle_names = {b.name for b in bundles}
    for p in _paths_ending(g, (), exits) if exits else ():
        # a concatenation of identifiers is one, and bundle names have no '#', so
        # the rendered path with '#' as '_' is an identifier; _fresh keeps the
        # names distinct
        name = _fresh(render_path(g, p).replace("#", "_"), taken)
        bundles.append(Bundle(_fresh(name, bundle_names), name, g.path_range(p), 1))
        entries.append(name)
    # The saturation H is hereditary, so each component and each cycle lies
    # wholly inside H or outside it, and H keeps every bundle between its
    # vertices.  A vertex of H keeps its path count: each path into it splits
    # uniquely at its first edge into H, and an entry source stands for exactly
    # the part ending with that edge.  When those parts are infinitely many,
    # _entry_exits has refused.
    return _restricted(g, sorted(hs), h + tuple(entries), tuple(bundles))


def _closed(ranges, m: int) -> int:
    """The saturation of the hereditary vertex mask ``m``, in one pass.

    ``ranges`` pairs the bit of each regular vertex with the mask of its
    ranges, in the graph's walk order along successors.  The set stays
    hereditary, so a vertex on a cycle is never adjoined: its successor
    on the cycle reaches it.  A vertex off every cycle comes after all
    its successors, so when the pass reaches it every successor that
    saturation adjoins has been adjoined.
    """
    for b, r in ranges:
        if not m & b and r & m == r:
            m |= b
    return m


def _walk_masks(g: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """Each vertex's tree as a mask, in declared order, and the ``ranges`` of ``_closed``.

    One pass over the walk order ORs into each strongly connected
    component its vertices and the reach of each component its edges
    enter.  For an edge u -> w between components, the walk finishes
    everything w reaches before u: none of it is open when u finishes
    (it would reach u, putting w in u's component), and none unvisited
    (a path to it from finished w would leave a finished vertex for an
    unvisited one).  So w's component, with every reach it ORs in, is
    complete when u reads it.
    """
    out, comp, classes = g._out, g._comp_of, g._classes
    reach = [0] * len(g.vertices)  # by component
    ranges = []
    for v in g._order:
        m, r = reach[comp[v]] | 1 << v, 0
        for _, w in out[v]:
            m |= reach[comp[w]]
            r |= 1 << w
        reach[comp[v]] = m
        if classes[v] is VertexClass.REGULAR:
            ranges.append((1 << v, r))
    return [reach[c] for c in comp], ranges


def _saturated_hereditary_masks(g: Graph) -> list[int]:
    """Every saturated hereditary set, as a mask over vertex positions, unordered.

    Flashlight search (Read-Tarjan 1975) over states (C, X): C is a
    saturated hereditary set and X a set of excluded vertices disjoint
    from it, and the state stands for every saturated hereditary H with
    C <= H and H disjoint from X.  Saturated hereditary sets are closed
    under intersection, so the least one containing C and a vertex v is
    the saturation C' of C together with the tree of v, and some H of the
    state contains v iff C' avoids X.  A state walks its undecided
    vertices in order: each v with C' disjoint from X pushes the state
    (C', X), which holds C' itself, and then joins X; at the end of the
    walk every vertex is in C or X and C is listed.  The states partition
    the sets, so each set is listed exactly once, by the state that
    holds it as C.  So the search pops one state per set, each making at
    most n closure tests of one pass over the regular vertices: at most
    n times as many tests as there are sets.  Iterative, with an
    explicit stack.
    """
    trees, ranges = _walk_masks(g)
    found = []
    stack = [(0, 0, 0)]  # (C, X, first undecided position); the empty set is saturated
    while stack:
        c, x, i = stack.pop()
        for j in range(i, len(trees)):
            b = 1 << j
            if (c | x) & b:
                continue
            wider = _closed(ranges, c | trees[j])
            if not wider & x:
                stack.append((wider, x, j + 1))
            x |= b
        found.append(c)
    ends = [(1 << u, 1 << w) for u, es in enumerate(g._out) for _, w in es]
    regular = sum(b for b, _ in ranges)
    for m in found:  # hereditary, and no regular vertex outside m has all ranges in m
        escaping = sum({s for s, r in ends if not m & r})  # sources leaving m: distinct bits
        if escaping & m or regular & ~(m | escaping):
            raise InternalInvariantError(f"listed set {m:b} is not saturated hereditary")
    return found


def enumerate_admissible_pairs(g: Graph) -> tuple[AdmissiblePair, ...]:
    """Every admissible pair, ordered by (|H|, H, |S|, S) in vertex order.

    The saturated hereditary sets come from a flashlight search that
    makes at most n closure tests per set (see
    ``_saturated_hereditary_masks``), so the time grows with the output,
    not with the 2^n vertex subsets, and each set is certified saturated
    and hereditary again.  Every S within its breaking vertices is listed.
    Each H is recorded on ``g`` with its positions and breaking vertices,
    so ``admissible_pair``, ``quotient_graph`` and ``ideal_graph`` of a listed
    H check only S; the record lives as long as ``g``.

    Guarded: refuses graphs with more than PAIR_ENUMERATION_LIMIT
    vertices, since the number of pairs can still grow as 2^n and nothing
    counts them before they are listed.
    """
    n = len(g.vertices)
    if n > PAIR_ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"admissible-pair enumeration is limited to {PAIR_ENUMERATION_LIMIT} vertices; "
            f"graph has {n}"
        )
    sets = [tuple(i for i in range(n) if m >> i & 1) for m in _saturated_hereditary_masks(g)]
    sets.sort(key=lambda positions: (len(positions), positions))
    pairs, certified = [], {}
    for positions in sets:
        h, hs = _ordered(g, positions), frozenset(positions)
        certified[h] = hs, _breaking_vertices(g, hs)
        br = _ordered(g, certified[h][1])
        for ssize in range(len(br) + 1):
            for scombo in combinations(br, ssize):
                pairs.append(AdmissiblePair(h, scombo))
    g.__dict__["_certified"] = certified
    return tuple(pairs)
