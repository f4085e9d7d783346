"""The linear-time structure checked against the algorithms it replaced.

The census used to decide doubling by listing every elementary circuit,
and line points by walking each vertex's whole tree.  Both are kept here
as oracles, next to networkx, and compared with the fast paths on
hypothesis-generated graphs of up to 8 vertices with loops and bundle
multiplicities 1, 2 and omega (the exhaustive sweep never builds a
multiplicity of 2 or more).
"""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from leavitt.boundary import _doubled_component, enumerate_classes  # noqa: E402
from leavitt.graph import (  # noqa: E402
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    _least_rotation,
    bundle_circuits,
    count_paths_into,
    is_omega,
    line_points,
    out_degree,
    paths_into,
    strongly_connected_components,
    tree_of,
    vertices_on_cycles,
)

SETTINGS = settings(max_examples=400, deadline=None, database=None)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    vs = tuple(f"v{i}" for i in range(n))
    vertex = st.sampled_from(vs)
    k = draw(st.integers(0, 14))
    bundles = tuple(
        Bundle(f"e{i}", draw(vertex), draw(vertex), draw(st.sampled_from((1, 2, OMEGA))))
        for i in range(k)
    )
    return Graph(vs, bundles)


# -- the replaced algorithms ---------------------------------------------------


def tree_walk_line_points(g):
    cyc = set(vertices_on_cycles(g))
    result = []
    for v in g.vertices:
        ok = True
        for w in tree_of(g, v):
            d = out_degree(g, w)
            if w in cyc or is_omega(d) or d > 1:
                ok = False
                break
        if ok:
            result.append(v)
    return tuple(result)


def circuit_weighted_doubling(g):
    comp_of = {}
    for i, comp in enumerate(strongly_connected_components(g)):
        for v in comp:
            comp_of[v] = i
    per_comp = {}
    for circuit in bundle_circuits(g):
        weight = 1
        for b in circuit:
            weight = min(2, weight * (2 if is_omega(b.multiplicity) else b.multiplicity))
        c = comp_of[circuit[0].source]
        per_comp[c] = per_comp.get(c, 0) + weight
        if per_comp[c] >= 2:
            return True
    return False


# -- networkx ------------------------------------------------------------------


def to_networkx(g):
    """Simple digraph whose edge weight is the total multiplicity (omega as 2)."""
    d = nx.DiGraph()
    d.add_nodes_from(g.vertices)
    for b in g.bundles:
        m = 2 if is_omega(b.multiplicity) else b.multiplicity
        w = d.edges[b.source, b.range]["weight"] if d.has_edge(b.source, b.range) else 0
        d.add_edge(b.source, b.range, weight=w + m)
    return d


def nx_line_points(g):
    d = to_networkx(g)
    cyclic = {v for cycle in nx.simple_cycles(d) for v in cycle}

    def emits_at_most_one(w):
        return sum(d.edges[w, x]["weight"] for x in d.successors(w)) <= 1

    return tuple(
        v
        for v in g.vertices
        if all(w not in cyclic and emits_at_most_one(w) for w in nx.descendants(d, v) | {v})
    )


def nx_doubled(g):
    d = to_networkx(g)
    comp_of = {v: i for i, comp in enumerate(nx.strongly_connected_components(d)) for v in comp}
    per_comp = {}
    for cycle in nx.simple_cycles(d):
        weight = 1
        for u, w in zip(cycle, cycle[1:] + cycle[:1]):
            weight *= d.edges[u, w]["weight"]
        c = comp_of[cycle[0]]
        per_comp[c] = per_comp.get(c, 0) + weight
    return any(total >= 2 for total in per_comp.values())


# -- comparisons ---------------------------------------------------------------


@SETTINGS
@given(graphs())
def test_line_points_match_tree_walk_and_networkx(g):
    assert line_points(g) == tree_walk_line_points(g) == nx_line_points(g)


@SETTINGS
@given(graphs())
def test_edge_count_doubling_matches_circuits_and_networkx(g):
    assert _doubled_component(g) == circuit_weighted_doubling(g) == nx_doubled(g)


@SETTINGS
@given(graphs())
def test_census_cycles_match_circuit_listing(g):
    census = enumerate_classes(g)
    if census.uncountable:
        return
    from_circuits = sorted(
        (_least_rotation(tuple(EdgeRef(b.name, 0) for b in c)) for c in bundle_circuits(g)),
        key=lambda c: (len(c), tuple(e.key() for e in c)),
    )
    read_off = [c.representative.cycle for c in census.classes if c.representative.cycle]
    assert read_off == from_circuits


@SETTINGS
@given(graphs())
def test_sccs_match_networkx(g):
    ours = {frozenset(c) for c in strongly_connected_components(g)}
    assert ours == {frozenset(c) for c in nx.strongly_connected_components(to_networkx(g))}


@SETTINGS
@given(graphs())
def test_path_count_matches_listing(g):
    for v in g.vertices:
        n = count_paths_into(g, v)
        if n is not None and n <= 2000:
            assert len(paths_into(g, v)) == n
