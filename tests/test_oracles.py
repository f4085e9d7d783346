"""The fast structure and certificates checked against what they replaced.

The census used to decide doubling by listing every elementary circuit,
and line points by walking each vertex's whole tree.  Both are kept here
as oracles, next to networkx, and compared with the fast paths on
hypothesis-generated graphs of up to 8 vertices with loops and bundle
multiplicities 1, 2 and omega (the exhaustive sweep never builds a
multiplicity of 2 or more).

The representation certificates used to form every product: all |Lambda|^4
products of matrix units, s_e* s_f for every pair of edges, and orbits and
intertwiner constraints over every generator of the representation.  Those
loops are kept here too, with a sympy rank computation for the intertwiner
spaces, and compared with the output-sized checks of ``leavitt.repn``.  So
are the stored grid of unit monomials, the one-edge-at-a-time collapse of
a shared line tail, the pair-by-pair rewrite of the sink monomials into
unit coordinates, and the evaluation that tests every basis path for a
prefix.

Downward directedness used to intersect the trees of every pair of
vertices, and the circuit walk started at every vertex; both are kept and
compared, the first also with networkx's condensation.

Lambda, the entry vertices of an ideal graph and the size of a lone-cycle
class each had their own loop over the bundles entering a vertex set;
saturation rescanned every vertex each round.  Those loops are kept here
and compared with ``count_entry_paths``/``entry_paths`` and the
counter-based saturation rounds on the same hypothesis graphs.

Path counts and listings used to walk the ancestors of each vertex per
call: the count of paths into a vertex, the listing of those paths, the
entry paths of a vertex set as one listing per entering source, and the
representation basis as one listing per sink.  The least rotation of a
cycle compared every rotation's key tuple.  Those are kept here and
compared with the per-graph count table and the one listing walk.

Vertex classes were re-derived per call by scanning a vertex's bundles
for omega, in ``classify_vertex``, ``is_saturated`` and
``breaking_vertices``; the census read each lone cycle with its own walk;
shift-tail equivalence built the set of every rotation of a cycle.
Those are kept here and compared with the per-graph class table,
``simple_cycles`` and ``st_equivalent``.

Strongly connected components came from a Tarjan walk of their own, and
the normal form expanded each term range with its own walk to the
sinks, building a Path for every descendant.  Both are kept here and
compared with the two passes of the one walk (as ordered tuples, which
the networkx comparison does not check) and with the shared listing
recurrence.

Every listing of paths (into vertices, into the sinks, entering a vertex
set) was built unsorted, sorted by ``path_key`` and rendered again path
by path; it now comes out in that order with its texts.  The old listing
is kept here and compared, order and text, on hypothesis graphs with
multiplicities 1, 2 and omega and on every acyclic sweep graph.  ``parse_path``
listed every segmentation of its text and checked each; that listing is
kept and compared with the count of readings on hypothesis texts.

The graph's construction tables were keyed by vertex name.  That
construction is kept here as ``name_keyed_tables`` and compared, table by
table with every position read as its name, on hypothesis graphs with
multiplicities 1, 2 and omega and on the sweep; the oracles below that
walk the graph's adjacency read it from those name-keyed tables.

Admissible pairs came from a walk over all 2^n vertex subsets, testing
each for being hereditary and saturated.  It is kept here and compared,
as the exact ordered tuple, with the flashlight search on hypothesis
graphs of up to 10 vertices, and the search with closed forms on combs
and lines up to the 20-vertex guard.

The vertices on cycles were the components of two or more vertices
plus the vertices with a loop, read by scanning the out-bundles again,
and the bundles entering a vertex set came from a scan of every bundle.
Both are kept here and compared with the count of internal edges per
component (and networkx) and with the ``into`` lists.

The composition series built a quotient graph at every step, took its
first or last surviving line point, saturated the point's tree and
counted |Lambda| there, and lifted the result back to an admissible pair
of the graph.  Condition 5 saturated the tree of each line point in
turn.  Both are kept here: the series is compared with the one that
keeps the quotient implicit, pair for pair and factor for factor in both
directions, on every acyclic sweep graph and on hypothesis graphs, and
the loop with the single-sink rule.

Edges, paths and monomials were dataclasses sorted through key tuples
with one (bundle, index) pair per edge, and names were checked with a
regular expression.  Both are kept here: the explicit keys are compared
with the value order of the named tuples on hypothesis graphs, and the
regular expression with the name check on hypothesis text.

The CLI wrote ``--json`` with ``json.dumps(payload, indent=2,
sort_keys=True)``, which encodes in pure Python, and ``rep --json`` read
each generator's rows from its dense ``Fraction`` matrix.  Both are kept
here: ``json.dumps`` is compared, byte for byte, with the CLI's own
writer on hypothesis payloads, and the ``Fraction`` rows with the rows
built from the partial maps on hypothesis acyclic graphs.

Saturation propagated counters: each regular vertex outside the set
counted its bundles still leaving it and joined the round after that
count reached 0.  The tree masks of the flashlight search repeated passes
over the walk order until no mask grew, and ``line_through`` decided
every line point of the graph to check one vertex.  All three are kept
here and compared with the single passes over the walk order on
hypothesis graphs with multiplicities 1, 2 and omega: the counters from
every vertex subset (the refusal of a set that is not hereditary
included), the masks as lists, and the line walk on every vertex, as
its result or its refusal.  Criterion 8's growth oracle multiplied count
matrices capped at 2 entry by entry; that version is kept here and
compared with the bit rows on hypothesis graphs and on every 16th sweep
graph.

The composition series certified each of its pairs through the full
``admissible_pair``.  That check is kept here and compared with the one
pass over the step at which each vertex joins H, on labellings of
hypothesis graphs (cycles and omega bundles included), admissible and
not: both give the same verdict, and a refusal names a pair that
``admissible_pair`` refuses and a vertex that breaks it.

Element arithmetic normalised every result per call: each coefficient
went through ``Fraction`` and was added to ``Fraction(0)``, and products
and normal forms were normalised twice.  Monomial products went through
``starts_with``, ``strip_prefix`` and ``concat``; ``evaluate`` looked up
the concatenations alpha r and beta r in the basis index.  All three
are kept here and compared, term order and ``Fraction`` coefficients
included, with the one normalising pass, the edge-tuple product and the
partial-map evaluation on hypothesis acyclic graphs with parallel edges.

``check_path`` looked each edge's bundle up three times: in
``check_edge``, then in ``range_of`` and ``source_of`` for each
consecutive pair.  That check is kept here and compared, exception type,
message and range, with the one lookup per edge on hypothesis paths over
multiplicities 1, 2 and omega, valid and broken in each way it refuses.
The representation's maps were found by their rendered labels, and held
again by ``EdgeRef``.  Each map is now held once, keyed by vertex or
edge; the labelled table is kept here (``labelled_generators``) and
compared with the labels, maps and block labels the representation
renders, on hypothesis acyclic graphs and trees.

The edge maps built every path e p and looked it up in the basis index;
``naimark_isomorphism`` listed every path into the sink and stripped its
line tail; irreducibility walked from every start of a block.  The first
two are kept here (``index_edge_maps``, ``sink_path_coordinates``) and
compared with the maps zipped from the basis and the counting proof, on
hypothesis graphs, brooms and the sweep; the walk over every generator
is compared with the two walks also on maps corrupted so that blocks fail.

``verify_relations`` composed the partial maps, six compositions per
edge, and never checked p_v p_w = delta_vw p_v.  That check is kept here
(``composed_relations``), with one that multiplies out the 0/1 matrices
of every relation family (``dense_relations``).  On maps corrupted in
five ways, the check by domains and images refuses exactly the maps the
matrices refuse, and wherever the projections are orthogonal it names
the relation that the composing check names.

Every ideal graph and quotient graph went through the ``Graph``
constructor, also when it is the graph itself (a saturation of every
vertex, or H empty) or the empty graph.  Both builders are kept here
and compared, graph and origin map or refusal message, on hypothesis
graphs with multiplicities 1, 2 and omega over every admissible pair
(S nonempty included) and every tree, saturated or not, and on every
8th sweep graph.
"""

import contextlib
import io
import json
import re
import string
import time
from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from leavitt.algebra import (  # noqa: E402
    AlgebraElement,
    Monomial,
    add,
    dimension,
    element,
    monomial_key,
    multiply,
    multiply_monomials,
    normal_form,
    parse_path,
    scale,
    star,
)
from leavitt.boundary import (  # noqa: E402
    BoundaryPath,
    ClassCensus,
    TailClass,
    boundary_path,
    enumerate_classes,
    shift,
    st_equivalent,
)
from leavitt import ideals  # noqa: E402
from leavitt import naimark  # noqa: E402
from leavitt.cli import _emit, _matrix_rows  # noqa: E402
from leavitt.errors import (  # noqa: E402
    ContractError,
    GraphError,
    InternalInvariantError,
    NotFinitelyPresentableError,
    UnknownNameError,
)
from leavitt.graph import (  # noqa: E402
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    Path,
    VertexClass,
    _check_subset,
    _edge_head,
    _entering,
    _entry_exits,
    _least_rotation,
    _paths_ending,
    _rows,
    _text_head,
    breaking_vertices,
    bundle_circuits,
    classify_vertex,
    concat,
    count_entry_paths,
    count_paths_into,
    downward_directed,
    entry_paths,
    has_cycle,
    is_hereditary,
    is_omega,
    is_saturated,
    is_singular,
    line_points,
    line_through,
    out_degree,
    path_key,
    paths_into,
    render_edge_ref,
    render_path,
    saturate,
    saturation_stages,
    simple_cycles,
    singular_vertices,
    strip_prefix,
    strongly_connected_components,
    tree_of,
    vertex_path,
    vertices_on_cycles,
)
from leavitt.ideals import (  # noqa: E402
    AdmissiblePair,
    _fresh,
    admissible_pair,
    enumerate_admissible_pairs,
    ideal_graph,
    quotient_graph,
    quotient_with_map,
)
from leavitt.naimark import (  # noqa: E402
    CompositionFactor,
    CompositionSeries,
    _certify_chain,
    check_condition5,
    composition_series,
)
from leavitt.repn import (  # noqa: E402
    MatrixUnitSystem,
    _verify_units,
    build_rho,
    evaluate,
    hom_space_dim,
    lambda_index_set,
    lambda_size,
    matrix_units,
    monomial_of,
    naimark_isomorphism,
    verify_irreducible_block,
    verify_relations,
)

from sweeputil import (  # noqa: E402
    acyclic_sweep_graphs,
    base_graphs,
    sampled_sweep_graphs,
    sweep_graphs,
)
from test_acceptance import _growth_doubles  # noqa: E402
from test_repn import live_map  # noqa: E402

SETTINGS = settings(max_examples=400, deadline=None, database=None)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    vs = tuple(f"v{i}" for i in range(n))
    vertex = st.sampled_from(vs)
    k = draw(st.integers(0, 14))
    bundles = tuple(
        Bundle(f"e{i}", draw(vertex), draw(vertex), draw(st.sampled_from((1, 2, OMEGA))))
        for i in range(k)
    )
    return Graph(vs, bundles)


@st.composite
def acyclic_graphs(draw):
    """Bundles run from lower to higher index; multiplicities 1 and 2."""
    n = draw(st.integers(1, 7))
    vs = tuple(f"v{i}" for i in range(n))
    bundles = []
    if n > 1:
        for i in range(draw(st.integers(0, 9))):
            s = draw(st.integers(0, n - 2))
            r = draw(st.integers(s + 1, n - 1))
            bundles.append(Bundle(f"e{i}", vs[s], vs[r], draw(st.sampled_from((1, 2)))))
    g = Graph(vs, tuple(bundles))
    sinks = [v for v in vs if not g.out_bundles(v)]
    hypothesis.assume(sum(count_paths_into(g, t) for t in sinks) <= 120)
    return g


# -- the replaced algorithms ---------------------------------------------------


def walk_by_name(adj, roots):
    """Vertices reachable from ``roots`` along ``adj`` (vertex -> neighbours), children first.

    The walk the name-keyed construction made: each vertex after every
    neighbour, except one still open on the walk.
    """
    order = []
    seen = set()
    stack = [(None, iter(roots))]  # a virtual vertex over the roots, listed last
    while stack:
        u, it = stack[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
            order.append(u)
    return order[:-1]


def name_keyed_components(vertices, succ, pred):
    """The walk order, the SCC partition and each vertex's component, over name-keyed tables."""
    order = walk_by_name(succ, vertices)
    roots = order[::-1]
    walk = iter(walk_by_name(pred, roots))
    root = {}
    for r in roots:
        if r not in root:
            for w in walk:
                root[w] = r
                if w == r:
                    break
    members = {}  # component of the first vertex first
    for v in vertices:
        members.setdefault(root[v], []).append(v)
    sccs = tuple(map(tuple, members.values()))
    return order, sccs, {v: i for i, comp in enumerate(sccs) for v in comp}


@lru_cache(maxsize=16)
def name_keyed_tables(g):
    """Every construction table keyed by vertex name, as the graph was built before positions.

    The graph has validated the presentation; the tables are built as
    ``Graph.__post_init__`` built them, with every vertex a name.  The
    oracles of one graph run one after another, so a few recent graphs are
    kept; callers must not change the tables.
    """
    out = {v: [] for v in g.vertices}
    into = {v: [] for v in g.vertices}
    classes = dict.fromkeys(g.vertices, VertexClass.SINK)
    for b in g.bundles:
        if b.multiplicity is OMEGA:
            classes[b.source] = VertexClass.INFINITE_EMITTER
        elif classes[b.source] is VertexClass.SINK:
            classes[b.source] = VertexClass.REGULAR
        out[b.source].append(b)
        into[b.range].append(b)
    out = {v: tuple(bs) for v, bs in out.items()}
    into = {v: tuple(bs) for v, bs in into.items()}
    succ = {v: tuple(b.range for b in bs) for v, bs in out.items()}
    pred = {v: tuple(b.source for b in bs) for v, bs in into.items()}
    order, sccs, comp_of = name_keyed_components(g.vertices, succ, pred)
    internal = [0] * len(sccs)
    for b in g.bundles:
        c = comp_of[b.source]
        if comp_of[b.range] == c:
            internal[c] += 2 if b.multiplicity is OMEGA else b.multiplicity
    cyclic = frozenset(v for c, vs in enumerate(sccs) if internal[c] for v in vs)
    count = {}
    for v in reversed(order):
        bs = into[v]
        if v in cyclic or any(b.multiplicity is OMEGA or count[b.source] is None for b in bs):
            count[v] = None
        else:
            count[v] = 1 + sum(b.multiplicity * count[b.source] for b in bs)
    return dict(
        _order=order,
        _position={v: i for i, v in enumerate(g.vertices)},
        _bundle_at={b.name: i for i, b in enumerate(g.bundles)},
        _out=out,
        _into=into,
        _succ=succ,
        _pred=pred,
        _classes=classes,
        _sccs=sccs,
        _comp_of=comp_of,
        _cyclic=cyclic,
        _doubled=frozenset(c for c, vs in enumerate(sccs) if internal[c] > len(vs)),
        _path_counts=count,
    )


def tables_by_name(g):
    """The construction tables of ``g``, each position read as its vertex's name."""
    vs, t = g.vertices, g.__dict__

    def names(ps):
        return tuple(vs[i] for i in ps)

    return dict(
        _order=list(names(t["_order"])),
        _position=t["_position"],
        _bundle_at=t["_bundle_at"],
        _out=dict(zip(vs, (tuple(b for b, _ in es) for es in t["_out"]))),
        _into=dict(zip(vs, (tuple(b for b, _ in es) for es in t["_into"]))),
        _succ=dict(zip(vs, (names(w for _, w in es) for es in t["_out"]))),
        _pred=dict(zip(vs, (names(u for _, u in es) for es in t["_into"]))),
        _classes=dict(zip(vs, t["_classes"])),
        _comp_of=dict(zip(vs, t["_comp_of"])),
        _cyclic=frozenset(names(t["_cyclic"])),
        _doubled=t["_doubled"],
        _path_counts=dict(zip(vs, t["_path_counts"])),
    )


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


def unpruned_bundle_circuits(g):
    """Circuits from a walk out of every vertex, through every higher-index vertex."""
    index = {v: i for i, v in enumerate(g.vertices)}
    circuits = []
    for s in g.vertices:
        chain = []
        visited = {s}
        work = [iter(g.out_bundles(s))]
        while work:
            for b in work[-1]:
                w = b.range
                if w == s:
                    circuits.append(tuple(chain) + (b,))
                elif index[w] > index[s] and w not in visited:
                    visited.add(w)
                    chain.append(b)
                    work.append(iter(g.out_bundles(w)))
                    break
            else:
                work.pop()
                if chain:
                    visited.remove(chain.pop().range)
    return tuple(circuits)


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


def lone_cycle_reading(g):
    """The census's cycles, one walk per component along its only internal bundles.

    Valid when no component carries two distinct simple cycles.
    """
    cycles = []
    for comp in strongly_connected_components(g):
        cset = set(comp)
        refs = []
        u = comp[0]
        while True:
            inside = [b for b in g.out_bundles(u) if b.range in cset]
            if not inside:
                break
            refs.append(EdgeRef(inside[0].name, 0))
            u = inside[0].range
            if u == comp[0]:
                cycles.append(all_rotations_least(tuple(refs)))
                break
    return sorted(cycles, key=lambda c: (len(c), tuple((e.bundle, e.index) for e in c)))


def all_rotations_least(cycle):
    """The least rotation of a cycle, comparing every rotation's key tuple."""
    keys = [tuple((e.bundle, e.index) for e in cycle[i:] + cycle[:i]) for i in range(len(cycle))]
    best = min(range(len(cycle)), key=lambda i: keys[i])
    return cycle[best:] + cycle[:best]


def walk_count_paths_into(g, v):
    """Per call: the ancestors of v, refused if one is cyclic or fed by omega, then counted."""
    tables = name_keyed_tables(g)
    into = tables["_into"]
    order = walk_by_name(tables["_pred"], (v,))
    if not tables["_cyclic"].isdisjoint(order):
        return None
    if any(is_omega(b.multiplicity) for u in order for b in into[u]):
        return None
    # order lists every vertex after the sources of its incoming bundles
    count = {}
    for u in order:
        count[u] = 1 + sum(b.multiplicity * count[b.source] for b in into[u])
    return count[v]


def walk_paths_into(g, v):
    """Per call: the paths into v by prepending along its ancestors, sorted."""
    ancestors = walk_by_name(name_keyed_tables(g)["_pred"], (v,))
    anc = set(ancestors)
    to_v = {}
    for u in reversed(ancestors):
        acc = [()] if u == v else []
        for b in g.out_bundles(u):
            if b.range in anc:
                for tail in to_v[b.range]:
                    acc.extend((EdgeRef(b.name, i),) + tail for i in range(b.multiplicity))
        to_v[u] = acc
    paths = [Path(edges=e) if e else vertex_path(v) for u in ancestors for e in to_v[u]]
    return tuple(sorted(paths, key=path_key))


def per_source_entry_paths(g, t, what):
    """One listing per entering bundle's source, extended by the bundle and sorted again."""
    tables = name_keyed_tables(g)
    tset = set(t)
    entries = []
    for b in [b for b in g.bundles if b.range in tset and b.source not in tset]:
        reason = None
        if is_omega(b.multiplicity):
            reason = f"omega bundle {b.name!r} feeds {what} at {b.range!r}"
        elif walk_count_paths_into(g, b.source) is None:
            ancestors = walk_by_name(tables["_pred"], (b.source,))
            cyclic = sorted(tables["_cyclic"].intersection(ancestors))
            if cyclic:
                reason = f"a cycle through {cyclic[0]!r} reaches {what}"
            else:
                reason = f"an omega bundle feeds the crossing edge {b.name!r}"
        if reason:
            raise NotFinitelyPresentableError(f"{reason}; infinitely many paths enter {what}")
        for head in walk_paths_into(g, b.source):
            entries.extend(
                Path(edges=head.edges + (EdgeRef(b.name, i),)) for i in range(b.multiplicity)
            )
    return tuple(sorted(entries, key=path_key))


def per_sink_basis(g):
    """The representation basis as one listing per sink, sorted again."""
    basis = []
    for t in g.vertices:
        if not g.out_bundles(t):
            basis.extend(walk_paths_into(g, t))
    basis.sort(key=path_key)
    return tuple(basis)


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
def test_circuit_walks_match_unpruned_walks(g):
    assert bundle_circuits(g) == unpruned_bundle_circuits(g)


@SETTINGS
@given(graphs())
def test_edge_count_doubling_matches_circuits_and_networkx(g):
    assert bool(g._doubled) == circuit_weighted_doubling(g) == nx_doubled(g)


@SETTINGS
@given(graphs())
def test_census_cycles_match_circuit_listing(g):
    census = enumerate_classes(g)
    if census.uncountable:
        return
    circuits = unpruned_bundle_circuits(g)
    from_circuits = sorted(
        (all_rotations_least(tuple(EdgeRef(b.name, 0) for b in c)) for c in circuits),
        key=lambda c: (len(c), tuple((e.bundle, e.index) for e in c)),
    )
    read_off = [c.representative.cycle for c in census.classes if c.representative.cycle]
    assert read_off == from_circuits == lone_cycle_reading(g)


@SETTINGS
@given(graphs())
def test_sccs_match_networkx(g):
    ours = {frozenset(c) for c in strongly_connected_components(g)}
    assert ours == {frozenset(c) for c in nx.strongly_connected_components(to_networkx(g))}


def tarjan_sccs(g):
    """SCC partition by iterative Tarjan, each component ordered, components by first vertex."""
    index = g._position
    adj = name_keyed_tables(g)["_succ"]
    low = {}
    disc = {}
    on_stack = set()
    stack = []
    comps = []
    counter = 0
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == disc[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    ordered = [tuple(sorted(c, key=index.get)) for c in comps]
    ordered.sort(key=lambda c: index[c[0]])
    return tuple(ordered)


@SETTINGS
@given(graphs())
def test_sccs_match_tarjan_in_order(g):
    assert strongly_connected_components(g) == tarjan_sccs(g)


def assert_tables_match_name_keyed_construction(g):
    """``g``'s tables hold positions, not names, and read as names they are the old tables.

    Only ``_position`` and ``_bundle_at`` are keyed by name; every other table
    holds positions, component indices, classes, counts and bundles, and each
    table indexed by position has one entry per vertex.
    """
    tables = {k: t for k, t in g.__dict__.items() if k not in ("vertices", "bundles")}
    by_name = {k for k, t in tables.items() if isinstance(t, dict)}
    assert by_name == {"_position", "_bundle_at"}
    stack = [t for k, t in tables.items() if k not in by_name]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple, frozenset)) and not isinstance(x, Bundle):
            stack.extend(x)
        else:
            assert x is None or type(x) is int or isinstance(x, (VertexClass, Bundle)), x
    n = len(g.vertices)
    per_vertex = ("_order", "_out", "_into", "_classes", "_comp_of")
    assert all(len(tables[k]) == n for k in per_vertex + ("_path_counts",))
    oracle = name_keyed_tables(g)
    # the partition is read off each vertex's component, which the graph keeps alone
    assert strongly_connected_components(g) == oracle["_sccs"]
    # each bundle is paired with its other end, which the old tables mirrored by name
    assert tables.keys() == oracle.keys() - {"_sccs", "_succ", "_pred"}
    assert tables_by_name(g) == {k: t for k, t in oracle.items() if k != "_sccs"}


@SETTINGS
@given(st.one_of(graphs(), acyclic_graphs()))
def test_tables_match_name_keyed_construction(g):
    assert_tables_match_name_keyed_construction(g)


def test_tables_match_name_keyed_construction_on_the_sweep():
    for g in sampled_sweep_graphs(8):
        assert_tables_match_name_keyed_construction(g)


def scan_cyclic(g):
    """Vertices of a component of two or more vertices, or with a loop on its out-bundles."""
    return tuple(
        v
        for comp in strongly_connected_components(g)
        for v in comp
        if len(comp) > 1 or any(b.range == v for b in g.out_bundles(v))
    )


@SETTINGS
@given(graphs())
def test_cycle_vertices_match_component_scan_and_networkx(g):
    ours = vertices_on_cycles(g)
    assert set(ours) == set(scan_cyclic(g))
    assert set(ours) == {v for cycle in nx.simple_cycles(to_networkx(g)) for v in cycle}
    assert ours == tuple(v for v in g.vertices if v in ours)
    assert has_cycle(g) == bool(ours)


def pairwise_downward_directed(g):
    """Every pair of vertices has a common descendant, by intersecting trees."""
    trees = {v: set(tree_of(g, v)) for v in g.vertices}
    vs = g.vertices
    return all(trees[a] & trees[b] for i, a in enumerate(vs) for b in vs[i + 1 :])


def nx_downward_directed(g):
    c = nx.condensation(to_networkx(g))
    return sum(1 for x in c if c.out_degree(x) == 0) <= 1


@SETTINGS
@given(graphs())
def test_downward_directed_matches_pairwise_loop_and_networkx(g):
    assert downward_directed(g) == pairwise_downward_directed(g) == nx_downward_directed(g)


@SETTINGS
@given(graphs())
def test_path_count_matches_listing(g):
    for v in g.vertices:
        n = count_paths_into(g, v)
        assert n == walk_count_paths_into(g, v)
        if n is None:
            with pytest.raises(NotFinitelyPresentableError):
                paths_into(g, v)
        elif n <= 2000:
            listed = paths_into(g, v)
            assert len(listed) == n
            assert listed == walk_paths_into(g, v)


@SETTINGS
@given(graphs())
def test_least_rotation_matches_all_rotations(g):
    for circuit in bundle_circuits(g):
        refs = tuple(EdgeRef(b.name, 0) for b in circuit)
        for i in range(len(refs)):
            rotated = refs[i:] + refs[:i]
            assert _least_rotation(rotated) == all_rotations_least(rotated)


def comb(k):
    """Spine s0 -> ... -> s(k-1) with a tooth sink t_i under each s_i."""
    s = [f"s{i}" for i in range(k)]
    t = [f"t{i}" for i in range(k)]
    bundles = [Bundle(f"f{i}", s[i], s[i + 1]) for i in range(k - 1)]
    bundles += [Bundle(f"g{i}", s[i], t[i]) for i in range(k)]
    return Graph(tuple(s + t), tuple(bundles))


def test_comb_census_is_linear():
    # sizing each tooth's class walked the whole spine above it: 3.8 s
    # on a 2-core VM with one count walk per class
    k = 2000
    g = comb(k)
    start = time.perf_counter()
    census = enumerate_classes(g)
    dim = dimension(g)
    assert time.perf_counter() - start < 1.0
    assert [c.size for c in census.classes] == [i + 2 for i in range(k)]
    assert dim == sum((i + 2) ** 2 for i in range(k))


def test_long_cycle_census_is_linear():
    # comparing every rotation's key tuple took 1.9 s and 600 MB on a
    # 2-core VM
    n = 3000
    vs = tuple(f"v{i}" for i in range(n))
    g = Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)))
    start = time.perf_counter()
    census = enumerate_classes(g)
    assert time.perf_counter() - start < 1.0
    (cls,) = census.classes
    assert cls.size == n and cls.representative.cycle[0] == EdgeRef("e0")


# -- matrix units: the exhaustive delta rule -------------------------------------


def drop_last(g, p):
    if p.length == 1:
        return vertex_path(g.source_of(p.edges[0]))
    return Path(edges=p.edges[:-1])


def collapse_line_tail(g, line_edges, m):
    """Strip a shared line tail one edge at a time: s_(a e) s_(b e)* = s_a s_b*."""
    alpha, beta = m.alpha, m.beta
    while (
        alpha.length > 0
        and beta.length > 0
        and alpha.edges[-1] == beta.edges[-1]
        and alpha.edges[-1] in line_edges
    ):
        alpha, beta = drop_last(g, alpha), drop_last(g, beta)
    return Monomial(alpha, beta)


def exhaustive_unit_check(g, chain, edges, lam, grid):
    """Star symmetry and all |lam|^4 unit products; True iff all hold."""
    n = len(lam)
    line_edges = set(edges)
    for i in range(n):
        for j in range(n):
            m = grid[i][j]
            if Monomial(m.beta, m.alpha) != grid[j][i]:
                return False
    for i in range(n):
        target = grid[i]
        for j, mij in enumerate(grid[i]):
            for k in range(n):
                for l, mkl in enumerate(grid[k]):
                    prod = multiply_monomials(g, mij, mkl)
                    if j == k:
                        if prod is None or collapse_line_tail(g, line_edges, prod) != target[l]:
                            return False
                    elif prod is not None:
                        return False
    return True


def fast_unit_check(g, chain, edges, lam):
    try:
        _verify_units(g, chain, edges, lam)
    except InternalInvariantError:
        return False
    return True


def shaped_grid(g, chain, edges, lam):
    """The unit monomial for every pair of ``lam``, written out cell by cell.

    For alpha, beta ending at line positions i <= j the unit is
    s_(alpha mu) s_beta* with mu the line path from i to j; for i > j it
    is the adjoint shape s_alpha s_(beta mu)*.
    """
    pos = {w: i for i, w in enumerate(chain)}
    at = [pos[g.path_range(p)] for p in lam]
    rows = []
    for pa, i in zip(lam, at):
        row = []
        for pb, j in zip(lam, at):
            if i < j:
                row.append(Monomial(concat(pa, Path(edges=edges[i:j])), pb))
            elif i == j:
                row.append(Monomial(pa, pb))
            else:
                row.append(Monomial(pa, concat(pb, Path(edges=edges[j:i]))))
        rows.append(row)
    return rows


def unit_grid(sys):
    """The grid of unit monomials, read through ``sys.unit``."""
    n = len(sys.lam)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            (m, c), = sys.unit(i, j).terms
            assert c == 1 and m == monomial_of(sys, i, j)
            row.append(m)
        grid.append(row)
    return grid


def unit_verdicts(g, v):
    sys = matrix_units(g, v)
    grid = unit_grid(sys)
    assert grid == shaped_grid(g, sys.line, sys.line_edges, sys.lam)
    fast = fast_unit_check(g, sys.line, sys.line_edges, sys.lam)
    return fast, exhaustive_unit_check(g, sys.line, sys.line_edges, sys.lam, grid)


def pairwise_isomorphism_check(g, sys):
    """The sink-monomial rewrite pair by pair; True iff it is a bijection onto Lambda x Lambda.

    Each sink path gets the coordinate of its shortest prefix ending on
    the line, and every pair of paths into one sink must collapse to the
    unit of their coordinates.
    """
    n = len(sys.lam)
    tset = set(sys.line)
    line_edges = set(sys.line_edges)
    lam_index = {p: i for i, p in enumerate(sys.lam)}

    def coordinate(p):
        if g.path_source(p) in tset:
            return lam_index.get(vertex_path(g.path_source(p)))
        for k in range(1, p.length + 1):
            if g.range_of(p.edges[k - 1]) in tset:
                return lam_index.get(Path(edges=p.edges[:k]))
        return None

    seen = set()
    for t in g.vertices:
        if g.out_bundles(t):
            continue
        into = paths_into(g, t)
        coords = [coordinate(p) for p in into]
        if None in coords:
            return False
        for alpha, i in zip(into, coords):
            for beta, j in zip(into, coords):
                if collapse_line_tail(g, line_edges, Monomial(alpha, beta)) != monomial_of(sys, i, j):
                    return False
                if (i, j) in seen:
                    return False
                seen.add((i, j))
    return len(seen) == n * n


def sink_path_coordinates(g, sys):
    """The unit coordinate c(p) of each path p into the one sink, in listing order.

    Lists every path into the end of the line, strips its trailing line
    edges and looks the rest up in Lambda; raises InternalInvariantError
    unless each path is lam_c followed by the line path from the range of
    lam_c and c is a bijection onto Lambda.
    """
    n = len(sys.lam)
    end = sys.line[-1]
    lam_index = {p: c for c, p in enumerate(sys.lam)}
    line_edges = set(sys.line_edges)
    seen = bytearray(n)
    coordinates = []
    for p in _paths_ending(g, (g.vertex_index(end),), {}):
        k = p.length
        while k and p.edges[k - 1] in line_edges:
            k -= 1
        head = Path(edges=p.edges[:k]) if k else vertex_path(g.path_source(p))
        c = lam_index.get(head)
        if c is None or p.edges[k:] != sys.line_edges[sys.at[c] :]:
            raise InternalInvariantError(f"sink path does not run from Lambda down the line: {p}")
        if seen[c]:
            raise InternalInvariantError("unit coordinates repeat")
        seen[c] = 1
        coordinates.append(c)
    if not all(seen):
        raise InternalInvariantError("unit coordinates do not cover Lambda")
    return coordinates


def assert_isomorphism_oracles(g, sys):
    """The pairwise rewrite and the listing of the sink paths both accept ``sys``."""
    assert pairwise_isomorphism_check(g, sys)
    assert sorted(sink_path_coordinates(g, sys)) == list(range(len(sys.lam)))


def broom(handle, bristles):
    """The line w0 -> ... -> w(handle-1), fed at w0 by ``bristles`` edges."""
    w = [f"w{i}" for i in range(handle)]
    x = [f"x{j}" for j in range(bristles)]
    bundles = [Bundle(f"e{i}", w[i], w[i + 1]) for i in range(handle - 1)]
    bundles += [Bundle(f"h{j}", x[j], w[0]) for j in range(bristles)]
    return Graph(tuple(w + x), tuple(bundles))


def test_unit_checks_agree_on_sweep_positives():
    positives = 0
    for g in base_graphs():
        if has_cycle(g):
            continue
        witness = check_condition5(g)
        if witness is None:
            continue
        positives += 1
        assert unit_verdicts(g, witness) == (True, True)
        assert_isomorphism_oracles(g, naimark_isomorphism(g, witness))
    assert positives == 1557


def test_unit_checks_agree_on_brooms():
    for lam in range(1, 13):
        for handle in sorted({1, max(1, lam // 2), lam}):
            g = broom(handle, lam - handle)
            for v in {g.vertices[0], g.vertices[-1]}:
                assert unit_verdicts(g, v) == (True, True)
            assert_isomorphism_oracles(g, naimark_isomorphism(g, "w0"))


@settings(max_examples=150, deadline=None, database=None)
@given(acyclic_graphs())
def test_unit_checks_agree_on_hypothesis_graphs(g):
    for v in line_points(g):
        if lambda_size(g, v) <= 12:
            assert unit_verdicts(g, v) == (True, True)
    witness = check_condition5(g)
    if witness is not None:
        assert_isomorphism_oracles(g, naimark_isomorphism(g, witness))


def corrupted_grids():
    """The |lam| = 8 broom at w0 and (lam, grid) pairs breaking the delta rule, by name."""
    g = broom(4, 4)
    chain, edges, lam = lambda_index_set(g, "w0")
    assert len(lam) == 8 and lam[4:] == tuple(Path(edges=(EdgeRef(f"h{j}"),)) for j in range(4))
    h0, h1 = lam[4], lam[5]
    h0_e0 = Path(edges=h0.edges + (edges[0],))
    h1_e0 = Path(edges=h1.edges + (edges[0],))
    cases = {}

    duplicated = lam[:5] + (h0,) + lam[6:]
    cases["duplicated member"] = duplicated, shaped_grid(g, chain, edges, duplicated)

    comparable = lam[:5] + (h0_e0,) + lam[6:]
    cases["comparable pair"] = comparable, shaped_grid(g, chain, edges, comparable)

    # h0 e0 in place of h0: incomparable with the rest, but ends in a line edge
    line_tail = lam[:4] + (h0_e0,) + lam[5:]
    cases["member ends in a line edge"] = line_tail, shaped_grid(g, chain, edges, line_tail)

    # units (h1, h0) and (h0, h1) carry one line edge too many on both sides
    grid = shaped_grid(g, chain, edges, lam)
    grid[5][4] = Monomial(h1_e0, h0_e0)
    grid[4][5] = Monomial(h0_e0, h1_e0)
    cases["wrong line path"] = lam, grid
    return g, chain, edges, cases


@pytest.mark.parametrize(
    "name",
    ["duplicated member", "comparable pair", "member ends in a line edge", "wrong line path"],
)
def test_unit_checks_reject_corrupted_grids(name):
    g, chain, edges, cases = corrupted_grids()
    lam, grid = cases[name]
    assert exhaustive_unit_check(g, chain, edges, lam, grid) is False
    if name == "wrong line path":
        # lam is intact and the corruption sits in the grid; units are
        # built from lam on demand, so no system can carry it
        sys = MatrixUnitSystem(chain, edges, lam, _verify_units(g, chain, edges, lam))
        assert unit_grid(sys) == shaped_grid(g, chain, edges, lam) != grid
    else:
        assert fast_unit_check(g, chain, edges, lam) is False


def test_isomorphism_checks_reject_shifted_coordinates(monkeypatch):
    # h0 recorded one line position further down than where it ends
    g = broom(4, 4)
    sys = matrix_units(g, "w0")
    at = list(sys.at)
    at[4] += 1
    shifted = MatrixUnitSystem(sys.line, sys.line_edges, sys.lam, tuple(at))
    assert pairwise_isomorphism_check(g, sys)
    assert not pairwise_isomorphism_check(g, shifted)
    monkeypatch.setattr("leavitt.repn.matrix_units", lambda g, v: shifted)
    with pytest.raises(InternalInvariantError, match="does not run from Lambda down the line"):
        naimark_isomorphism(g, "w0")


def test_sink_path_coordinates_reject_shifted_coordinates():
    g = broom(4, 4)
    sys = matrix_units(g, "w0")
    at = list(sys.at)
    at[4] += 1
    shifted = MatrixUnitSystem(sys.line, sys.line_edges, sys.lam, tuple(at))
    assert sink_path_coordinates(g, sys) == [3, 2, 1, 0, 4, 5, 6, 7]  # w3, e2, e1e2, e0e1e2, h0e0e1e2, ...
    with pytest.raises(InternalInvariantError, match="does not run from Lambda down the line"):
        sink_path_coordinates(g, shifted)


def test_naimark_isomorphism_lists_no_sink_path_on_a_long_broom():
    # listing and stripping the 2,200 paths into the sink took 6.8 s on a
    # 2-core VM
    g = broom(2000, 200)
    start = time.perf_counter()
    sys = naimark_isomorphism(g, "w0")
    assert time.perf_counter() - start < 1.0
    assert len(sys.lam) == 2200 and sys.at == (*range(2000), *[0] * 200)


# -- the representation: pairwise relations, all-generator walks ------------------


def _compose(a, b):
    return {j: a[i] for j, i in b.items() if i in a}


def pairwise_relations(R):
    """The relation check composing s_e* with every s_f; raises on failure."""
    g = R.graph
    for ref in g.edge_refs():
        e = R.edge_map(ref)
        estar = R.edge_star_map(ref)
        ps = R.vertex_map(g.source_of(ref))
        pr = R.vertex_map(g.range_of(ref))
        if _compose(ps, e) != e or _compose(e, pr) != e:
            raise InternalInvariantError("p s = s = s p")
        if _compose(pr, estar) != estar or _compose(estar, ps) != estar:
            raise InternalInvariantError("p s* = s* = s* p")
        for other in g.edge_refs():
            expected = pr if other == ref else {}
            if _compose(estar, R.edge_map(other)) != expected:
                raise InternalInvariantError("s_e* s_f")
    for v in g.vertices:
        out = g.out_bundles(v)
        if not out:
            continue
        union = {}
        for b in out:
            for i in range(b.multiplicity):
                ref = EdgeRef(b.name, i)
                for j, i2 in _compose(R.edge_map(ref), R.edge_star_map(ref)).items():
                    if j != i2 or j in union:
                        raise InternalInvariantError("summands overlap")
                    union[j] = i2
        if union != R.vertex_map(v):
            raise InternalInvariantError("p_v = sum s_e s_e*")


def composed_relations(R):
    """The relation check composing the partial maps, six compositions per edge.

    Per edge e: p_s(e) s_e = s_e = s_e p_r(e) and the same for s_e*,
    s_e* is the inverse of s_e, and s_e* s_e = p_r(e).  Per regular
    vertex: p_v is the disjoint sum of the range projections s_e s_e*.
    The pairwise relations s_e* s_f = 0 for e != f are checked through
    the images.  Never checks p_v p_w = delta_vw p_v.

    Raises InternalInvariantError with the failing relation.
    """
    g = R.graph
    owner: dict[int, EdgeRef] = {}
    for ref in g.edge_refs():
        b = g.bundle(ref.bundle)
        label = f"s_{render_edge_ref(g, ref)}"
        e, estar = live_map(R, label), live_map(R, label + "*")
        ps = live_map(R, f"p_{b.source}")
        pr = live_map(R, f"p_{b.range}")
        if _compose(ps, e) != e or _compose(e, pr) != e:
            name = render_edge_ref(g, ref)
            raise InternalInvariantError(f"relation p s = s = s p fails for {name}")
        if _compose(pr, estar) != estar or _compose(estar, ps) != estar:
            name = render_edge_ref(g, ref)
            raise InternalInvariantError(f"relation p s* = s* = s* p fails for {name}")
        if estar != {i: j for j, i in e.items()}:
            name = render_edge_ref(g, ref)
            raise InternalInvariantError(f"s_{name}* is not the inverse of s_{name}")
        if _compose(estar, e) != pr:
            name = render_edge_ref(g, ref)
            raise InternalInvariantError(f"relation s*{name} s{name} fails")
        for i in e.values():
            first = owner.setdefault(i, ref)
            if first != ref:
                name = render_edge_ref(g, ref)
                raise InternalInvariantError(
                    f"relation s*{render_edge_ref(g, first)} s{name} fails"
                )
    for v in g.vertices:
        out = g.out_bundles(v)
        if not out:
            continue
        union = {}
        for b in out:
            for i in range(b.multiplicity):
                label = f"s_{render_edge_ref(g, EdgeRef(b.name, i))}"
                piece = _compose(live_map(R, label), live_map(R, label + "*"))
                for j, i2 in piece.items():
                    if j != i2 or j in union:
                        raise InternalInvariantError(f"summands at {v!r} overlap")
                    union[j] = i2
        if union != live_map(R, f"p_{v}"):
            raise InternalInvariantError(f"relation p_v = sum s_e s_e* fails at {v!r}")


def dense_relations(R):
    """The relation families that fail on R's labelled maps, multiplied out as 0/1 matrices.

    "V": p_v p_w = delta_vw p_v and p_v = p_v^T; "E1": p_s(e) s_e = s_e =
    s_e p_r(e); "E2": the same for s_e*; "adjoint": s_e* = s_e^T; "CK1":
    s_e* s_f = delta_ef p_r(e) for every pair of edges; "CK2": p_v is the
    sum of s_e s_e* over the edges e at each regular vertex v.
    """
    g = R.graph
    n = R.dimension
    zero = [[0] * n for _ in range(n)]

    def matrix(label):
        rows = [[0] * n for _ in range(n)]
        for j, i in live_map(R, label).items():
            rows[i][j] = 1
        return rows

    def mul(a, b):
        out = []
        for row in a:
            acc = [0] * n
            for k, c in enumerate(row):
                if c:
                    acc = [x + c * y for x, y in zip(acc, b[k])]
            out.append(acc)
        return out

    def add(a, b):
        return [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)]

    def transpose(a):
        return [list(col) for col in zip(*a)]

    p = {v: matrix(f"p_{v}") for v in g.vertices}
    refs = g.edge_refs()
    s = {ref: matrix(f"s_{render_edge_ref(g, ref)}") for ref in refs}
    s_star = {ref: matrix(f"s_{render_edge_ref(g, ref)}*") for ref in refs}
    failing = set()
    for v in g.vertices:
        if p[v] != transpose(p[v]):
            failing.add("V")
        for w in g.vertices:
            if mul(p[v], p[w]) != (p[v] if v == w else zero):
                failing.add("V")
    for ref in refs:
        ps, pr = p[g.source_of(ref)], p[g.range_of(ref)]
        if not (mul(ps, s[ref]) == s[ref] == mul(s[ref], pr)):
            failing.add("E1")
        if not (mul(pr, s_star[ref]) == s_star[ref] == mul(s_star[ref], ps)):
            failing.add("E2")
        if s_star[ref] != transpose(s[ref]):
            failing.add("adjoint")
        for other in refs:
            if mul(s_star[ref], s[other]) != (pr if other == ref else zero):
                failing.add("CK1")
    for v in g.vertices:
        at_v = [ref for ref in refs if g.source_of(ref) == v]
        total = zero
        for ref in at_v:
            total = add(total, mul(s[ref], s_star[ref]))
        if at_v and total != p[v]:
            failing.add("CK2")
    return failing


def all_generator_orbits(R, block_index):
    """Irreducibility walk over every generator of the representation."""
    block = R.classes[block_index]
    maps = [R.generator_map(label) for label in R.generator_labels()]
    certificate = {}
    ok = True
    for start in block:
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for m in maps:
                nxt = m.get(cur)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        certificate[R.basis[start]] = tuple(
            R.basis[i] for i in sorted(seen, key=lambda i: path_key(R.basis[i]))
        )
        ok = ok and seen == set(block)
    return ok, certificate


def dense_hom_space_dim(R, a, b):
    """Union-find over every (generator, row, column) constraint."""
    A, B = R.classes[a], R.classes[b]
    pos_a = {gi: j for j, gi in enumerate(A)}
    pos_b = {gi: i for i, gi in enumerate(B)}
    na, nb = len(A), len(B)
    parent = list(range(na * nb + 1))
    zero = na * nb

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for label in R.generator_labels():
        m = R.generator_map(label)
        f = {pos_a[gj]: pos_a[gi] for gj, gi in m.items() if gj in pos_a}
        h_inv = {pos_b[gi]: pos_b[gj] for gj, gi in m.items() if gj in pos_b}
        for j in range(na):
            fj = f.get(j)
            for i in range(nb):
                hi = h_inv.get(i)
                if fj is not None and hi is not None:
                    union(i * na + fj, hi * na + j)
                elif fj is not None:
                    union(i * na + fj, zero)
                elif hi is not None:
                    union(hi * na + j, zero)
    roots = {find(e) for e in range(na * nb)}
    roots.discard(find(zero))
    return len(roots)


def union_find_hom_space_dim(R, a, b):
    """Dimension of the intertwiner space between blocks ``a`` and ``b``, by union-find.

    Solves T rho_a(gen) = rho_b(gen) T for all generators exactly.  The
    generators are partial injections, so every constraint either equates
    two entries of T or forces one to zero; a union-find over the entries
    gives the dimension as the number of entry classes with no entry
    forced to zero.

    With f = rho_a(gen) and h = rho_b(gen), entry (i, j) of the equation
    reads T[i, f(j)] = T[h^-1(i), j], where a side with f(j) or h^-1(i)
    undefined is 0.  A generator acting on neither block gives only
    0 = 0, and an entry with both sides undefined says nothing, so the
    constraints come from the generators acting on a or b, and from the
    columns j in the domain of f (all rows i) and the rows i in the image
    of h (the remaining columns): O(sum |f| n_b + sum |h| n_a) unions
    instead of O(|generators| n_a n_b).
    """
    A = R._block(a)
    B = R._block(b)
    pos_a = {gi: j for j, gi in enumerate(A)}
    pos_b = {gi: i for i, gi in enumerate(B)}
    na, nb = len(A), len(B)
    size = na * nb
    parent = list(range(size))
    forced_zero = bytearray(size)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for label in dict.fromkeys(R.block_labels[a] + R.block_labels[b]):
        m = live_map(R, label)
        f = {}
        h_inv = {}
        for gj, gi in m.items():
            if gj in pos_a:
                if gi not in pos_a:
                    raise InternalInvariantError("generator leaves a block")
                f[pos_a[gj]] = pos_a[gi]
            if gj in pos_b:
                if gi not in pos_b:
                    raise InternalInvariantError("generator leaves a block")
                h_inv[pos_b[gi]] = pos_b[gj]
        for j, fj in f.items():
            for i in range(nb):
                hi = h_inv.get(i)
                if hi is None:
                    forced_zero[i * na + fj] = 1
                else:
                    rx, ry = find(i * na + fj), find(hi * na + j)
                    if rx != ry:
                        parent[rx] = ry
        for hi in h_inv.values():
            row = hi * na
            for j in range(na):
                if j not in f:
                    forced_zero[row + j] = 1
    roots = {find(e) for e in range(size)}
    return len(roots - {find(e) for e in range(size) if forced_zero[e]})


def sympy_hom_space_dim(R, a, b):
    """n_a n_b minus the rank of T rho_a(x) = rho_b(x) T over every generator.

    The equations are written out densely, one row per entry of T rho_a(x)
    - rho_b(x) T, and ranked exactly over the rationals.
    """
    A, B = R.classes[a], R.classes[b]
    na, nb = len(A), len(B)
    rows = set()
    for label in R.generator_labels():
        m = R.generator_map(label)
        ma = [[int(m.get(gj) == gk) for gj in A] for gk in A]
        mb = [[int(m.get(gj) == gk) for gj in B] for gk in B]
        for i in range(nb):
            for j in range(na):
                row = [0] * (na * nb)
                for k in range(na):
                    row[i * na + k] += ma[k][j]
                for k in range(nb):
                    row[k * na + j] -= mb[i][k]
                if any(row):
                    rows.add(tuple(row))
    if not rows:
        return na * nb
    matrix = DomainMatrix([[QQ(x) for x in r] for r in sorted(rows)], (len(rows), na * nb), QQ)
    return na * nb - matrix.rank()


@settings(max_examples=120, deadline=None, database=None)
@given(acyclic_graphs())
def test_representation_checks_match_exhaustive_loops_and_sympy(g):
    R = build_rho(g)
    assert R.basis == per_sink_basis(g)
    verify_relations(R)
    pairwise_relations(R)
    k = len(R.classes)
    for c in range(k):
        assert verify_irreducible_block(R, c) == all_generator_orbits(R, c)
    for a in range(k):
        for b in range(k):
            d = hom_space_dim(R, a, b)
            assert d == dense_hom_space_dim(R, a, b) == (1 if a == b else 0)
            assert d == union_find_hom_space_dim(R, a, b)
            if len(R.classes[a]) * len(R.classes[b]) <= 64:
                assert d == sympy_hom_space_dim(R, a, b)


@st.composite
def trees(draw):
    """Each vertex after the first hangs from an earlier one: many sinks, small blocks."""
    n = draw(st.integers(2, 12))
    vs = tuple(f"v{i}" for i in range(n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    mult = st.sampled_from((1, 2))
    return Graph(vs, tuple(Bundle(f"e{i}", vs[p], vs[i + 1], draw(mult)) for i, p in enumerate(parents)))


def corrupt_maps(R, how, data):
    """Clear the star maps on one block, send one entry to another block, or
    permute maps within each block, still one to one."""
    k = len(R.classes)
    if how == "clear stars":
        c = data.draw(st.integers(0, k - 1))
        for label in R.block_labels[c]:
            if label.endswith("*"):
                m = live_map(R, label)
                for j in [j for j in m if R.class_of[j] == c]:
                    del m[j]
    elif how == "leave":
        hypothesis.assume(k > 1)
        m = live_map(R, data.draw(st.sampled_from(R.generator_labels())))
        j = data.draw(st.sampled_from(sorted(m)))
        m[j] = data.draw(st.sampled_from([i for i, c in enumerate(R.class_of) if c != R.class_of[j]]))
    else:
        for label in data.draw(st.lists(st.sampled_from(R.generator_labels()), max_size=4)):
            m = live_map(R, label)
            for c, block in enumerate(R.classes):
                domain = [j for j in m if R.class_of[j] == c]
                m.update(zip(domain, data.draw(st.permutations(block))))


def widen_maps(R, how, data):
    """Set one entry of a map to any position, or copy the positions of a
    projection into another map; either may give a map new positions."""
    labels = R.generator_labels()
    hypothesis.assume(len(labels) > 1)
    if how == "set entry":
        n = R.dimension
        m = live_map(R, data.draw(st.sampled_from(labels)))
        m[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    else:
        p = data.draw(st.sampled_from([f"p_{v}" for v in R.graph.vertices]))
        other = data.draw(st.sampled_from([label for label in labels if label != p]))
        live_map(R, other).update(live_map(R, p))


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(acyclic_graphs(), trees()),
    st.sampled_from(["clear stars", "leave", "permute", "set entry", "copy projection"]),
    st.data(),
)
def test_relation_checks_match_dense_relations_on_corrupted_maps(g, how, data):
    """verify_relations refuses exactly the maps on which some relation
    fails as matrices; where the projections are orthogonal, which the
    composing check takes for granted, it names the same failure."""
    R = build_rho(g)
    hypothesis.assume(R.dimension <= 120)
    (widen_maps if how in ("set entry", "copy projection") else corrupt_maps)(R, how, data)
    failing = dense_relations(R)
    outcomes = []
    for check in (verify_relations, composed_relations):
        try:
            check(R)
            outcomes.append(None)
        except InternalInvariantError as exc:
            outcomes.append(str(exc))
    assert (outcomes[0] is not None) == bool(failing)
    if "V" not in failing:
        assert outcomes[0] == outcomes[1]


@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(acyclic_graphs(), trees()), st.sampled_from(["clear stars", "permute"]), st.data())
def test_hom_space_dim_matches_dense_on_permuted_maps(g, how, data):
    """Dimensions away from delta: the union-find solves them, and the
    Schur certificate answers as dense does or refuses."""
    R = build_rho(g)
    corrupt_maps(R, how, data)
    k = len(R.classes)
    for a in range(k):
        for b in range(k):
            dense = dense_hom_space_dim(R, a, b)
            assert union_find_hom_space_dim(R, a, b) == dense
            try:
                d = hom_space_dim(R, a, b)
            except InternalInvariantError:
                continue
            assert d == dense


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(acyclic_graphs(), trees()), st.sampled_from(["clear stars", "leave", "permute"]), st.data())
def test_irreducibility_matches_all_generator_orbits_on_corrupted_maps(g, how, data):
    """Blocks that fail: the star maps cleared on one block, one entry sent
    to another block, or maps permuted within each block."""
    R = build_rho(g)
    corrupt_maps(R, how, data)
    for c in range(len(R.classes)):
        assert verify_irreducible_block(R, c) == all_generator_orbits(R, c)


def starts_with(g, p, q):
    """True iff ``q`` is a prefix of ``p`` (a vertex path prefixes anything it sources)."""
    if q.length == 0:
        return g.path_source(p) == q.vertex
    return p.edges[: q.length] == q.edges


def scanning_evaluate(R, x):
    """Dense matrix of x, testing every basis path against each term's beta."""
    g = R.graph
    n = len(R.basis)
    index = {p: i for i, p in enumerate(R.basis)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for m, c in x.terms:
        for j, delta in enumerate(R.basis):
            if not starts_with(g, delta, m.beta):
                continue
            i = index.get(concat(m.alpha, strip_prefix(g, delta, m.beta)))
            if i is not None:
                rows[i][j] += c
    return tuple(tuple(r) for r in rows)


def index_evaluate(R, x):
    """Dense matrix of x, looking up the concatenations alpha r and beta r in a basis index."""
    g = R.graph
    n = len(R.basis)
    index = {p: i for i, p in enumerate(R.basis)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for m, c in x.terms:
        for j in R.vertex_map(g.path_range(m.beta)):
            rest = R.basis[j]
            i = index.get(concat(m.alpha, rest))
            if i is not None:
                rows[i][index[concat(m.beta, rest)]] += c
    return tuple(tuple(r) for r in rows)


@settings(max_examples=120, deadline=None, database=None)
@given(acyclic_graphs(), st.data())
def test_evaluate_matches_basis_scan(g, data):
    R = build_rho(g)
    by_range = {v: paths_into(g, v) for v in g.vertices}
    paths = [p for ps in by_range.values() for p in ps]
    terms = []
    for _ in range(data.draw(st.integers(0, 6))):
        alpha = data.draw(st.sampled_from(paths))
        beta = data.draw(st.sampled_from(by_range[g.path_range(alpha)]))
        c = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        terms.append((Monomial(alpha, beta), c))
    x = element(terms)
    matrix = evaluate(R, x)
    assert matrix == scanning_evaluate(R, x) == index_evaluate(R, x)
    assert all(type(c) is Fraction for row in matrix for c in row)
    # built directly, with repeated monomials and int coefficients
    ints = AlgebraElement(tuple((m, data.draw(st.integers(-3, 3))) for m, _ in terms + terms[:2]))
    matrix = evaluate(R, ints)
    assert matrix == index_evaluate(R, ints)
    assert all(type(c) is Fraction for row in matrix for c in row)


def per_range_normal_form(g, x):
    """The sink-basis rewrite with one cached walk per term range, building a Path per descendant."""

    def paths_to_sinks(v):
        ending = {}  # vertex -> its paths to sinks
        for u in walk_by_name(name_keyed_tables(g)["_succ"], (v,)):
            out = g.out_bundles(u)
            if not out:
                ending[u] = [vertex_path(u)]
                continue
            ending[u] = [
                Path(edges=(EdgeRef(b.name, i),) + tail.edges)
                for b in out
                for tail in ending[b.range]
                for i in range(b.multiplicity)
            ]
        return ending[v]

    acc = {}
    cache = {}
    for m, c in x.terms:
        v = g.path_range(m.alpha)
        if v not in cache:
            cache[v] = paths_to_sinks(v)
        for ext in cache[v]:
            mm = Monomial(concat(m.alpha, ext), concat(m.beta, ext))
            acc[mm] = acc.get(mm, Fraction(0)) + c
    return reference_element(acc.items())


@settings(max_examples=200, deadline=None, database=None)
@given(acyclic_graphs(), st.data())
def test_normal_form_matches_per_range_expansion(g, data):
    by_range = {v: paths_into(g, v) for v in g.vertices}
    paths = [p for ps in by_range.values() for p in ps]
    sinks = [v for v in g.vertices if not g.out_bundles(v)]
    terms = []
    for _ in range(data.draw(st.integers(0, 6))):
        if data.draw(st.booleans()):
            # a term whose range is a sink is already in normal form
            alpha = data.draw(st.sampled_from([p for t in sinks for p in by_range[t]]))
        else:
            alpha = data.draw(st.sampled_from(paths))
        beta = data.draw(st.sampled_from(by_range[g.path_range(alpha)]))
        c = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        terms.append((Monomial(alpha, beta), c))
    x = element(terms)
    assert normal_form(g, x) == per_range_normal_form(g, x)


# -- element arithmetic: prefix products and per-call normalising -------------------


def prefix_multiply_monomials(g, a, b):
    """The monomial product through ``starts_with``, ``strip_prefix`` and ``concat``."""
    if starts_with(g, b.alpha, a.beta):
        rest = strip_prefix(g, b.alpha, a.beta)
        return Monomial(concat(a.alpha, rest), b.beta)
    if starts_with(g, a.beta, b.alpha):
        rest = strip_prefix(g, a.beta, b.alpha)
        return Monomial(a.alpha, concat(b.beta, rest))
    return None


def reference_element(pairs):
    """Coerce every coefficient, add it to ``Fraction(0)``, drop zeros and sort by ``monomial_key``."""
    acc = {}
    for m, c in pairs:
        c = Fraction(c)
        if c:
            acc[m] = acc.get(m, Fraction(0)) + c
    cleaned = [(m, c) for m, c in acc.items() if c]
    cleaned.sort(key=lambda mc: monomial_key(mc[0]))
    return AlgebraElement(tuple(cleaned))


def reference_add(x, y):
    acc = dict(x.terms)
    for m, c in y.terms:
        acc[m] = acc.get(m, Fraction(0)) + c
    return reference_element(acc.items())


def reference_multiply(g, x, y):
    acc = {}
    for ma, ca in x.terms:
        for mb, cb in y.terms:
            m = prefix_multiply_monomials(g, ma, mb)
            if m is not None:
                acc[m] = acc.get(m, Fraction(0)) + ca * cb
    return reference_element(acc.items())


def assert_same_element(x, y):
    """Equal terms in the same order, every coefficient a nonzero ``Fraction``."""
    assert x == y
    assert all(type(c) is Fraction and c for _, c in x.terms)


def monomial_pool(g):
    """Every (alpha, beta) with a common range, vertex paths included."""
    by_range = {v: paths_into(g, v) for v in g.vertices}
    return [Monomial(a, b) for ps in by_range.values() for a in ps for b in ps]


@settings(max_examples=150, deadline=None, database=None)
@given(acyclic_graphs(), st.data())
def test_monomial_products_match_prefix_form(g, data):
    # every vertex projection, and drawn monomials
    picks = [Monomial(vertex_path(v), vertex_path(v)) for v in g.vertices]
    picks += data.draw(st.lists(st.sampled_from(monomial_pool(g)), max_size=20))
    zero = 0
    for a in picks:
        for b in picks:
            m = multiply_monomials(g, a, b)
            assert m == prefix_multiply_monomials(g, a, b)
            zero += m is None
    # non-composable pairs occur whenever there are two vertices
    assert zero or len(g.vertices) == 1


coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 3), st.integers(1, 4)),
)


@settings(max_examples=150, deadline=None, database=None)
@given(acyclic_graphs(), st.data())
def test_element_arithmetic_matches_per_call_normalising(g, data):
    pool = monomial_pool(g)

    def pairs():
        out = []
        for m, c in data.draw(st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=6)):
            out.append((m, c))
            if data.draw(st.booleans()):
                out.append((m, -Fraction(c)))  # cancels to zero
        return out

    xs, ys = pairs(), pairs()
    x, y = element(xs), element(ys)
    assert_same_element(x, reference_element(xs))
    assert_same_element(y, reference_element(ys))
    assert_same_element(element(dict(xs)), reference_element(dict(xs).items()))
    assert_same_element(add(x, y), reference_add(x, y))
    q = data.draw(coefficients)
    assert_same_element(scale(q, x), reference_element((m, Fraction(q) * c) for m, c in x.terms))
    assert_same_element(star(x), reference_element((Monomial(m.beta, m.alpha), c) for m, c in x.terms))
    assert_same_element(multiply(g, x, y), reference_multiply(g, x, y))
    # built directly: unsorted, with repeated monomials and zero coefficients
    raw = AlgebraElement(tuple((m, Fraction(c)) for m, c in xs + xs[:2]))
    assert_same_element(star(raw), reference_element((Monomial(m.beta, m.alpha), c) for m, c in raw.terms))
    assert_same_element(multiply(g, raw, y), reference_multiply(g, raw, y))
    assert_same_element(normal_form(g, raw), per_range_normal_form(g, raw))
    # built directly with int coefficients: every result still carries Fractions
    ints = AlgebraElement(tuple((m, data.draw(st.integers(-3, 3))) for m, _ in xs + xs[:2]))
    assert_same_element(star(ints), reference_element((Monomial(m.beta, m.alpha), c) for m, c in ints.terms))
    assert_same_element(add(ints, y), reference_add(ints, y))
    assert_same_element(add(y, ints), reference_add(y, ints))
    assert_same_element(multiply(g, ints, ints), reference_multiply(g, ints, ints))
    assert_same_element(normal_form(g, ints), per_range_normal_form(g, ints))


def test_relation_checks_reject_overlapping_images():
    # s_h#1 made equal to s_h#0: every relation but s_h#0* s_h#1 = 0 holds
    g = Graph(("x", "w"), (Bundle("h", "x", "w", 2),))
    R = build_rho(g)
    live_map(R, "s_h#1").clear()
    live_map(R, "s_h#1").update(live_map(R, "s_h#0"))
    live_map(R, "s_h#1*").clear()
    live_map(R, "s_h#1*").update(live_map(R, "s_h#0*"))
    with pytest.raises(InternalInvariantError, match=r"relation s\*h#0 sh#1 fails"):
        verify_relations(R)
    with pytest.raises(InternalInvariantError, match="s_e\\* s_f"):
        pairwise_relations(R)


# -- entry paths and saturation: the loops they replaced ---------------------------


def round_loop_saturation_stages(g, h):
    """Each round rescans every vertex for regular ones whose edges all land in H."""
    hset = set(h)
    stages = [tuple(v for v in g.vertices if v in hset)]
    while True:
        new = set(hset)
        for v in g.vertices:
            if v in new or scan_classify_vertex(g, v) is not VertexClass.REGULAR:
                continue
            if all(b.range in hset for b in g.out_bundles(v)):
                new.add(v)
        if new == hset:
            return stages
        hset = new
        stages.append(tuple(v for v in g.vertices if v in hset))


def lone_cycle_class_size(g, cycle):
    """Per rotation: the vertex path at its start plus every path entering it there."""
    cycle_bundles = {e.bundle for e in cycle}
    total = 0
    for i in range(len(cycle)):
        start = g.source_of(cycle[i])
        total += 1
        for b in g.in_bundles(start):
            if b.name in cycle_bundles:
                continue
            if is_omega(b.multiplicity):
                return None
            feeding = count_paths_into(g, b.source)
            if feeding is None:
                return None
            total += b.multiplicity * feeding
    return total


def ideal_vertex_name(g, p):
    parts = []
    for e in p.edges:
        m = g.bundle(e.bundle).multiplicity
        parts.append(e.bundle if (e.index == 0 and m == 1) else f"{e.bundle}_{e.index}")
    return "".join(parts)


def crossing_loop_ideal_graph(g, h):
    """The ideal graph from its own crossing loop; None where it would be infinite."""
    hbar = set(saturate(g, h))
    crossing = [b for b in g.bundles if b.range in hbar and b.source not in hbar]
    for b in crossing:
        if is_omega(b.multiplicity) or count_paths_into(g, b.source) is None:
            return None
    entries = []
    for b in crossing:
        for head in paths_into(g, b.source):
            for i in range(b.multiplicity):
                entries.append(Path(edges=head.edges + (g.edge(b.name, i),)))
    entries.sort(key=path_key)
    kept = [v for v in g.vertices if v in hbar]
    taken = set(kept)
    entry_names = [(_fresh(ideal_vertex_name(g, p), taken), p) for p in entries]
    bundles = [b for b in g.bundles if b.source in hbar]
    bundle_names = {b.name for b in bundles}
    for name, p in entry_names:
        bundles.append(Bundle(_fresh(name, bundle_names), name, g.path_range(p), 1))
    return Graph(tuple(kept) + tuple(n for n, _ in entry_names), tuple(bundles))


def line_entry_loop(g, v):
    """Lambda of a line point from its own loop over the line's in-bundles; None if infinite."""
    chain, _ = line_through(g, v)
    tset = set(chain)
    entering = []
    for w in chain:
        for b in g.in_bundles(w):
            if b.source in tset:
                continue
            if is_omega(b.multiplicity) or count_paths_into(g, b.source) is None:
                return None
            for head in paths_into(g, b.source):
                for i in range(b.multiplicity):
                    entering.append(Path(edges=head.edges + (EdgeRef(b.name, i),)))
    entering.sort(key=path_key)
    return tuple(Path(vertex=w) for w in chain) + tuple(entering)


def vertex_sets(g):
    """Each vertex, each tree, each tree's saturation and each SCC."""
    sets = {frozenset(c) for c in strongly_connected_components(g)}
    for v in g.vertices:
        tree = tree_of(g, v)
        sets.update((frozenset({v}), frozenset(tree), frozenset(saturate(g, tree))))
    return sorted(sets, key=lambda s: sorted(s))


LISTING_LIMIT = 2000


@SETTINGS
@given(graphs())
def test_saturation_matches_round_loop(g):
    for h in [()] + [tree_of(g, v) for v in g.vertices]:
        stages = saturation_stages(g, h)
        assert stages == round_loop_saturation_stages(g, h)
        assert saturate(g, h) == stages[-1]


def test_sink_first_line_saturates_in_linear_time():
    # declared sink first, the sink's tree saturates one vertex per round;
    # a rescan of every vertex per round took seconds here
    n = 2000
    vs = tuple(f"v{i}" for i in reversed(range(n)))
    g = Graph(vs, tuple(Bundle(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)))
    start = time.perf_counter()
    assert check_condition5(g) == f"v{n - 1}"
    assert saturate(g, (f"v{n - 1}",)) == vs
    assert time.perf_counter() - start < 1.0


@SETTINGS
@given(graphs())
def test_entry_count_matches_listing(g):
    for t in vertex_sets(g):
        n = count_entry_paths(g, t)
        if n is None:
            with pytest.raises(NotFinitelyPresentableError) as err:
                entry_paths(g, t, "the set")
            with pytest.raises(NotFinitelyPresentableError) as per_source:
                per_source_entry_paths(g, t, "the set")
            assert str(err.value) == str(per_source.value)
        elif n <= LISTING_LIMIT:
            listed = entry_paths(g, t, "the set")
            assert len(listed) == n
            assert list(listed) == sorted(listed, key=path_key)
            assert listed == per_source_entry_paths(g, t, "the set")


@SETTINGS
@given(graphs())
def test_entering_bundles_match_bundle_scan(g):
    for t in vertex_sets(g):
        scan = [b for b in g.bundles if b.range in t and b.source not in t]
        assert [b for b, _ in _entering(g, _check_subset(g, t))] == scan


@SETTINGS
@given(graphs())
def test_census_class_sizes_match_lone_cycle_loop(g):
    for c in enumerate_classes(g).classes:
        if c.representative.cycle:
            assert c.size == lone_cycle_class_size(g, c.representative.cycle)


@SETTINGS
@given(graphs())
def test_ideal_graph_matches_crossing_loop(g):
    for v in g.vertices:
        h = tree_of(g, v)
        n = count_entry_paths(g, saturate(g, h))
        if n is not None and n > LISTING_LIMIT:
            continue
        expected = crossing_loop_ideal_graph(g, h)
        if expected is None:
            with pytest.raises(NotFinitelyPresentableError):
                ideal_graph(g, h)
        else:
            assert ideal_graph(g, h) == expected


def rebuilt_quotient_with_map(g, pair):
    """``quotient_with_map`` building every quotient through ``Graph``, g and empty included."""
    pair, breaking = ideals._checked_pair(g, pair.h, pair.s)
    hset = set(pair.h)
    gaps = [v for v in breaking if v not in pair.s]
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


def rebuilt_ideal_graph(g, h):
    """``ideal_graph`` building every ideal graph through ``Graph``, g and empty included."""
    hset = set(h)
    if not is_hereditary(g, hset):
        raise ContractError("ideal graphs are built from hereditary sets")
    hbar = saturate(g, hset)
    taken, entries = set(hbar), []
    bundles = [b for b in g.bundles if b.source in taken]
    bundle_names = {b.name for b in bundles}
    for p in entry_paths(g, hbar, "the saturation"):
        name = _fresh(render_path(g, p).replace("#", "_"), taken)
        bundles.append(Bundle(_fresh(name, bundle_names), name, g.path_range(p), 1))
        entries.append(name)
    return Graph(hbar + tuple(entries), tuple(bundles))


def derived_outcome(build, g, arg):
    try:
        return build(g, arg)
    except NotFinitelyPresentableError as err:
        return "refused", str(err)


def assert_derived_graphs_match_rebuilt(g, extra_hereditary=()):
    """Each quotient by an admissible pair, and each ideal graph of a pair's H or an extra set."""
    pairs = enumerate_admissible_pairs(g)
    for p in pairs:
        assert quotient_with_map(g, p) == rebuilt_quotient_with_map(g, p), (g, p)
    for h in [p.h for p in pairs if not p.s] + [*extra_hereditary]:
        n = count_entry_paths(g, saturate(g, h))
        if n is not None and n > LISTING_LIMIT:
            continue
        built = derived_outcome(ideal_graph, g, h)
        assert built == derived_outcome(rebuilt_ideal_graph, g, h), (g, h)


@SETTINGS
@given(graphs())
def test_derived_graphs_match_rebuilt_graphs(g):
    # the trees are hereditary and need not be saturated
    assert_derived_graphs_match_rebuilt(g, {tree_of(g, v) for v in g.vertices})


def test_derived_graphs_match_rebuilt_graphs_on_the_sweep():
    for g in sampled_sweep_graphs(8):
        assert_derived_graphs_match_rebuilt(g)


# -- the census and the listed pairs, kept on the graph ---------------------------


def uncached_census(g):
    """``enumerate_classes`` taken afresh on every call, as before it was kept on ``g``."""
    if g._doubled:
        return ClassCensus(True, ())
    classes = []
    for v in singular_vertices(g):
        rep = BoundaryPath(vertex_path(v), None)
        classes.append(TailClass(rep, count_paths_into(g, v)))
    for cyc in simple_cycles(g):
        rep = boundary_path(g, vertex_path(g.source_of(cyc[0])), cyc)
        entries = count_entry_paths(g, [g.source_of(e) for e in cyc])
        classes.append(TailClass(rep, None if entries is None else len(cyc) + entries))
    return ClassCensus(False, tuple(classes))


def assert_census_is_kept(g):
    census = enumerate_classes(g)
    assert census == uncached_census(g), g
    assert enumerate_classes(g) is census
    twin = Graph(g.vertices, g.bundles)  # equal, but another instance: its own census
    assert enumerate_classes(twin) == census and enumerate_classes(twin) is not census


def outcome(call):
    """The result of ``call``, or the type and message of what it raised."""
    try:
        return call()
    except Exception as err:
        return type(err), str(err)


def listed_pair_candidates(full, pairs, foreign):
    """Every listed (H, S), and each perturbed: H reordered or as a list, S with a vertex that
    does not break H; then every H of ``foreign``, listed on another graph, with S empty."""
    for p in pairs:
        breaking = ideals._checked_pair(full, p.h, ())[1]
        yield p.h, p.s
        yield p.h[::-1], p.s
        yield list(p.h), p.s
        yield p.h, p.s + next(((v,) for v in full.vertices if v not in breaking), ())
    for h in foreign:
        yield h, ()


def listed_ideal_graph(g, h):
    """``outcome`` of ``ideal_graph(g, h)``, or None when it would list over LISTING_LIMIT entries."""
    n = outcome(lambda: count_entry_paths(g, saturate(g, h)))
    return None if isinstance(n, int) and n > LISTING_LIMIT else outcome(lambda: ideal_graph(g, h))


def assert_listed_pairs_match_full_checks(g, foreign=()):
    """On the pairs ``g`` listed and on perturbed ones, each pair check and derived graph
    through ``g``'s record equals the full one on an equal instance that listed nothing;
    each census of ``g`` and its derived graphs equals ``uncached_census``."""
    pairs = enumerate_admissible_pairs(g)
    full = Graph(g.vertices, g.bundles)
    for h, s in listed_pair_candidates(full, pairs, foreign):
        checked = outcome(lambda: ideals._checked_pair(g, h, s))
        assert checked == outcome(lambda: ideals._checked_pair(full, h, s)), (g, h, s)
        if not s:
            assert listed_ideal_graph(g, h) == listed_ideal_graph(full, h), (g, h)
    assert_census_is_kept(g)
    for p in pairs:
        assert_census_is_kept(quotient_graph(g, p))
        if not p.s and isinstance(ideal := listed_ideal_graph(g, p.h), Graph):
            assert_census_is_kept(ideal)
    return [p.h for p in pairs if not p.s]


@SETTINGS
@given(graphs())
def test_kept_census_and_listed_pairs_match_full_checks(g):
    # the sets another instance listed: g with its last bundle dropped
    foreign = enumerate_admissible_pairs(Graph(g.vertices, g.bundles[:-1]))
    assert_listed_pairs_match_full_checks(g, [p.h for p in foreign if not p.s])


def test_kept_census_and_listed_pairs_match_full_checks_on_the_sweep():
    foreign = []  # the sets the previous sampled graph listed
    for g in sampled_sweep_graphs(64):
        foreign = assert_listed_pairs_match_full_checks(g, foreign)


@SETTINGS
@given(graphs())
def test_lambda_matches_line_entry_loop(g):
    for v in line_points(g):
        size = lambda_size(g, v)
        assert size == count_paths_into(g, line_through(g, v)[0][-1])
        if size is not None and size > LISTING_LIMIT:
            continue
        expected = line_entry_loop(g, v)
        if expected is None:
            assert size is None
            with pytest.raises(NotFinitelyPresentableError):
                lambda_index_set(g, v)
        else:
            assert size == len(expected)
            assert lambda_index_set(g, v)[2] == expected


# -- vertex classes and rotations: the per-call scans they replaced ----------------


def scan_classify_vertex(g, v):
    """Per call: a sink emits nothing, an infinite emitter has an omega bundle."""
    out = g.out_bundles(v)
    if not out:
        return VertexClass.SINK
    if any(is_omega(b.multiplicity) for b in out):
        return VertexClass.INFINITE_EMITTER
    return VertexClass.REGULAR


def scan_is_saturated(g, h):
    """Every vertex's bundles rescanned for omega and for a range outside H."""
    hset = set(h)
    for v in g.vertices:
        out = g.out_bundles(v)
        if v not in hset and out and all(
            not is_omega(b.multiplicity) and b.range in hset for b in out
        ):
            return False
    return True


def scan_breaking_vertices(g, h):
    """Every singular vertex outside H, its escaping edges counted bundle by bundle."""
    hset = set(h)
    result = []
    for v in g.vertices:
        if v in hset or scan_classify_vertex(g, v) is VertexClass.REGULAR:
            continue
        count = 0
        infinite = False
        for b in g.out_bundles(v):
            if b.range in hset:
                continue
            if is_omega(b.multiplicity):
                infinite = True
                break
            count += b.multiplicity
        if not infinite and count > 0:
            result.append(v)
    return tuple(result)


def rotation_set_st_equivalent(g, a, b):
    """Shift-tail equivalence through the set of every rotation of a's cycle."""
    if (a.cycle is None) != (b.cycle is None):
        return False
    if a.cycle is None:
        return g.path_range(a.prefix) == g.path_range(b.prefix)
    return b.cycle in {a.cycle[i:] + a.cycle[:i] for i in range(len(a.cycle))}


def periodic_samples(g):
    """Purely periodic paths around simple cycles and products of two, with shifts.

    A product c·d·d or c·c·d of two distinct cycles through a shared vertex
    is primitive but not simple, so its first edge can recur.
    """
    try:
        cycles = simple_cycles(g)[:3]
    except NotFinitelyPresentableError:
        cycles = ()
    loops = list(cycles)
    for c in cycles:
        v = g.source_of(c[0])
        for d in cycles:
            starts = [i for i, e in enumerate(d) if g.source_of(e) == v]
            if starts:
                d_at_v = d[starts[0] :] + d[: starts[0]]
                loops += [c + d_at_v + d_at_v, c + c + d_at_v]
    paths = []
    for c in loops:
        b = boundary_path(g, vertex_path(g.source_of(c[0])), c)
        for _ in range(3):
            paths.append(b)
            b = shift(g, b)
    return paths


@SETTINGS
@given(graphs())
def test_vertex_classes_match_per_vertex_scan(g):
    classes = [classify_vertex(g, v) for v in g.vertices]
    assert classes == [scan_classify_vertex(g, v) for v in g.vertices]
    singular = tuple(v for v, c in zip(g.vertices, classes) if c is not VertexClass.REGULAR)
    assert singular_vertices(g) == singular


@SETTINGS
@given(graphs())
def test_saturation_and_breaking_match_per_vertex_loops(g):
    for r in range(len(g.vertices) + 1):
        for h in combinations(g.vertices, r):
            saturated = is_saturated(g, h)
            assert saturated == scan_is_saturated(g, h)
            if saturated and is_hereditary(g, h):
                assert breaking_vertices(g, h) == scan_breaking_vertices(g, h)


@SETTINGS
@given(graphs())
def test_st_equivalent_matches_rotation_set(g):
    paths = periodic_samples(g)
    paths += [BoundaryPath(vertex_path(v)) for v in singular_vertices(g)]
    for a in paths:
        for b in paths:
            assert st_equivalent(g, a, b) == rotation_set_st_equivalent(g, a, b)


def subset_walk_pairs(g):
    """Admissible pairs by testing every vertex subset, in (|H|, H, |S|, S) order."""
    n = len(g.vertices)
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


@SETTINGS
@given(graphs(max_vertices=10))
def test_admissible_pairs_match_subset_walk(g):
    assert enumerate_admissible_pairs(g) == subset_walk_pairs(g)


def looped_line(n):
    """v0 -> v1 -> ... -> v(n-1) with a loop at every vertex."""
    vs = tuple(f"v{i}" for i in range(n))
    bundles = [Bundle(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    bundles += [Bundle(f"l{i}", v, v) for i, v in enumerate(vs)]
    return Graph(vs, tuple(bundles))


def test_admissible_pairs_closed_forms():
    # a spine tail from s_j plus any teeth t_i with i < j - 1: 2^k sets, and
    # with no infinite emitter each set is one pair
    for k in range(1, 11):
        pairs = enumerate_admissible_pairs(comb(k))
        assert len(pairs) == 2**k and not any(p.s for p in pairs)
        if k <= 5:
            assert pairs == subset_walk_pairs(comb(k))
    for n in range(1, 21):
        vs = tuple(f"v{i}" for i in range(n))
        line = Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)))
        # a line saturates from its sink to every vertex: only the trivial pairs
        assert [p.h for p in enumerate_admissible_pairs(line)] == [(), vs]
        # with a loop at every vertex no vertex is pulled in: the n + 1 tails
        assert [p.h for p in enumerate_admissible_pairs(looped_line(n))] == [
            vs[i:] for i in range(n, -1, -1)
        ]


def test_certification_rejects_an_unsaturated_listing(monkeypatch):
    # with closure by saturation switched off, the search lists {v1} of
    # v0 -> v1, which the pass over the bundles refuses
    monkeypatch.setattr(ideals, "_closed", lambda ranges, m: m)
    g = Graph(("v0", "v1"), (Bundle("e", "v0", "v1"),))
    with pytest.raises(InternalInvariantError, match="not saturated hereditary"):
        enumerate_admissible_pairs(g)


# -- composition series and condition 5: a quotient graph per step ---------------


def lift_pair(g, pair, origin, closed):
    """Pull a saturated hereditary set of the quotient back to a pair of g.

    A surviving vertex with a gap twin splits its projection into the gap
    part (carried by the twin) and the escaping part (implied once the
    escaping ranges die), so it joins H only together with its twin.
    Plain survivors join H outright; absorbed gap sinks put their
    breaking vertex into S.  A vertex slated for S whose escaping edges
    all end up inside the enlarged H carries a projection that now lies
    in the ideal, so it migrates into H, and saturation is re-run until
    stable.
    """
    gap_of = {v: q for q, (kind, v) in origin.items() if kind == "gap"}
    closed_set = set(closed)
    h = set(pair.h)
    pending = set(pair.s)
    for q in closed:
        kind, v = origin[q]
        if kind == "gap":
            pending.add(v)
        elif v not in gap_of or gap_of[v] in closed_set:
            h.add(v)
    while True:
        h = set(saturate(g, h))
        moved = False
        for v in sorted(pending - h):
            if all(b.range in h for b in g.out_bundles(v)):
                h.add(v)
                moved = True
        if not moved:
            break
    return admissible_pair(g, h, pending - h)


def quotient_per_step_series(g, reverse=False):
    """The series with a quotient graph, its line points, a saturation and
    a |Lambda| count built at every step."""
    pair = admissible_pair(g, (), ())
    pairs = [pair]
    factors = []
    while set(pair.h) != set(g.vertices):
        quotient, origin = quotient_with_map(g, pair)
        candidates = [w for w in line_points(quotient) if origin[w][0] == "real"]
        if not candidates:
            raise InternalInvariantError("quotient graph has no surviving line point")
        w = candidates[-1] if reverse else candidates[0]
        closed = saturate(quotient, tree_of(quotient, w))
        new_pair = lift_pair(g, pair, origin, closed)
        if set(new_pair.h) == set(pair.h) and set(new_pair.s) == set(pair.s):
            raise InternalInvariantError("composition step did not grow the ideal")
        factors.append(CompositionFactor(lambda_size(quotient, w), origin[w][1]))
        pair = new_pair
        pairs.append(pair)
    if pair.s:
        raise InternalInvariantError("terminal pair retains breaking vertices")
    return CompositionSeries(tuple(pairs), tuple(factors))


def per_line_point_condition5(g):
    full = set(g.vertices)
    for v in line_points(g):
        if set(saturate(g, tree_of(g, v))) == full:
            return v
    return None


@st.composite
def acyclic_omega_graphs(draw):
    """Bundles run from lower to higher index; multiplicities 1, 2 and omega."""
    n = draw(st.integers(2, 8))
    vs = tuple(f"v{i}" for i in range(n))
    bundles = []
    for i in range(draw(st.integers(1, 12))):
        s = draw(st.integers(0, n - 2))
        r = draw(st.integers(s + 1, n - 1))
        bundles.append(Bundle(f"e{i}", vs[s], vs[r], draw(st.sampled_from((1, 2, OMEGA)))))
    return Graph(vs, tuple(bundles))


def test_series_matches_quotient_per_step_on_the_acyclic_sweep():
    # omega promotions included, so breaking vertices and gap sinks occur
    checked = 0
    for g in acyclic_sweep_graphs():
        checked += 1
        for reverse in (False, True):
            assert composition_series(g, reverse) == quotient_per_step_series(g, reverse)
    assert checked == 18736


@SETTINGS
@given(st.one_of(acyclic_graphs(), acyclic_omega_graphs()))
def test_series_matches_quotient_per_step_on_hypothesis_graphs(g):
    for reverse in (False, True):
        assert composition_series(g, reverse) == quotient_per_step_series(g, reverse)


@st.composite
def step_labellings(draw, g):
    """A step for every vertex, drawn at random, or the steps of a chain of
    saturated hereditary sets, ending at all vertices, with or without one
    vertex moved by a step."""
    kind = draw(st.sampled_from(("random", "chain", "moved")))
    if kind == "random":
        k = draw(st.integers(1, 4))
        return {v: draw(st.integers(1, k)) for v in g.vertices}
    step, h = {}, set()
    heads = draw(st.lists(st.sampled_from(g.vertices), max_size=4))
    for i, v in enumerate(heads, 1):
        h = set(saturate(g, h.union(tree_of(g, v))))
        for x in h:
            step.setdefault(x, i)
    for v in g.vertices:
        step.setdefault(v, len(heads) + 1)
    if kind == "moved":
        v = draw(st.sampled_from(g.vertices))
        step[v] = max(1, step[v] + draw(st.sampled_from((-1, 1))))
    return step


@SETTINGS
@given(st.one_of(graphs(), acyclic_graphs(), acyclic_omega_graphs()), st.data())
def test_chain_certificate_matches_admissible_pair_on_every_step(g, data):
    step = data.draw(step_labellings(g))
    chain = [{v for v in g.vertices if step[v] <= i} for i in range(max(step.values()) + 1)]
    refused = set()
    for i, h in enumerate(chain):
        try:
            admissible_pair(g, h, ())
        except ContractError:
            refused.add(i)
    try:
        _certify_chain(g, {g.vertex_index(v): k for v, k in step.items()})
    except InternalInvariantError as exc:
        i, v = re.fullmatch(r"pair (\d+) is not admissible at '(\w+)'", str(exc)).groups()
        h, succ = chain[int(i)], set(name_keyed_tables(g)["_succ"][v])
        assert int(i) in refused
        assert v in h and not succ <= h or v not in h and not is_singular(g, v) and succ <= h
    else:
        assert not refused


def test_certificate_rejects_a_regular_vertex_joining_late(monkeypatch):
    # with every vertex taken for singular, v0 of v0 -> v1 does not join
    # with v1 but becomes a line point of its own at the next step
    monkeypatch.setattr(naimark, "_singular", lambda g: range(len(g.vertices)))
    g = Graph(("v0", "v1"), (Bundle("e", "v0", "v1"),))
    with pytest.raises(InternalInvariantError, match="pair 1 is not admissible at 'v0'"):
        composition_series(g)


@SETTINGS
@given(st.one_of(graphs(), acyclic_graphs(), acyclic_omega_graphs()))
def test_condition5_matches_per_line_point_loop(g):
    assert check_condition5(g) == per_line_point_condition5(g)


# -- value order of the named tuples, and the name check -------------------------

# The name check before names were tested with str.isascii and str.isidentifier.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@SETTINGS
@given(st.text(string.printable + "_éßµªİıſ\u212a\u2160\u0661\u00a0", max_size=4))
def test_name_check_matches_regex(name):
    builds = (lambda: Graph((name,)), lambda: Graph(("u",), (Bundle(name, "u", "u"),)))
    for build, what in zip(builds, ("vertex", "bundle")):
        if NAME_RE.match(name):
            build()
        else:
            with pytest.raises(GraphError, match=f"invalid {what} name"):
                build()


def explicit_edges_key(edges):
    return tuple((e.bundle, e.index) for e in edges)


def explicit_path_key(p):
    """The order ``path_key`` promises, one (bundle, index) pair per edge."""
    if p.vertex is not None:
        return (0, ((p.vertex, -1),))
    return (len(p.edges), explicit_edges_key(p.edges))


@SETTINGS
@given(graphs())
def test_value_order_is_explicit_edge_order(g):
    for v in g.vertices:
        n = count_paths_into(g, v)
        if n is None or n > LISTING_LIMIT:
            continue
        listed = paths_into(g, v)
        assert list(listed) == sorted(listed, key=explicit_path_key)
        edge_paths = [p for p in listed if p.length]
        assert edge_paths == sorted(edge_paths, key=lambda p: (p.length, p))
        some = listed[:6]
        monomials = [Monomial(a, b) for a in some for b in some]
        assert sorted(monomials, key=monomial_key) == sorted(
            monomials,
            key=lambda m: (
                m.alpha.length,
                m.beta.length,
                explicit_path_key(m.alpha)[1],
                explicit_path_key(m.beta)[1],
            ),
        )
    try:
        cycles = simple_cycles(g)
    except NotFinitelyPresentableError:
        return
    assert list(cycles) == sorted(cycles, key=lambda c: (len(c), explicit_edges_key(c)))
    assert all(c == all_rotations_least(c) for c in cycles)


# -- listings in path_key order, and path parsing --------------------------------


def sorted_listing(g, ends):
    """The paths into the ends, listed unsorted, then sorted by path_key and rendered.

    ``ends`` maps a vertex x to tails: () for the path ending at x, or
    one edge leaving x.
    """
    ancestors = walk_by_name(name_keyed_tables(g)["_pred"], ends)
    tails = {}
    for u in reversed(ancestors):
        acc = list(ends.get(u, ()))
        for b in g.out_bundles(u):
            for tail in tails.get(b.range, ()):
                acc.extend((EdgeRef(b.name, i),) + tail for i in range(b.multiplicity))
        tails[u] = acc
    paths = sorted(
        (Path(edges=e) if e else vertex_path(u) for u in ancestors for e in tails[u]),
        key=path_key,
    )
    return paths, [render_path(g, p) for p in paths]


def listed_texts(g, stops, exits):
    """The texts of the paths into the vertices ``stops`` or ending with an edge of ``exits``.

    Listed as text rows, as ``_paths_ending`` lists them.
    """
    return sorted(stops) + _rows(g, positions(g, stops), exits, _text_head, "")


def positions(g, names):
    return [g.vertex_index(v) for v in names]


def assert_listing(g, stops, exits, paths, expected):
    """Both kinds of rows against ``sorted_listing``'s ``expected`` (paths, texts).

    ``paths`` is the listing of edge rows as paths; the text rows must be
    its texts, and ``render_path`` of the edge rows.
    """
    assert (paths, listed_texts(g, stops, exits)) == expected
    text_rows = _rows(g, positions(g, stops), exits, _text_head, "")
    edge_rows = _rows(g, positions(g, stops), exits, _edge_head, ())
    assert text_rows == [render_path(g, Path(edges=e)) for e in edge_rows]


def check_listings(g, each_vertex=True):
    """Compare the ordered listings with ``sorted_listing``; return how many were compared.

    Sink ends: the paths into all singular vertices at once and, with
    ``each_vertex``, into each vertex.  Entry ends: the paths entering
    each line and each saturated tree.  Only finite listings of at most
    LISTING_LIMIT paths.
    """
    limit = LISTING_LIMIT
    compared = 0
    for stops in [(v,) for v in g.vertices if each_vertex] + [singular_vertices(g)]:
        counts = [count_paths_into(g, v) for v in stops]
        if None not in counts and sum(counts) <= limit:
            expected = sorted_listing(g, {v: [()] for v in stops})
            assert_listing(g, stops, {}, _paths_ending(g, positions(g, stops), {}), expected)
            compared += 1
    sets = {line_through(g, v)[0] for v in line_points(g)}
    sets.update(saturate(g, tree_of(g, v)) for v in g.vertices)
    for t in sets:
        n = count_entry_paths(g, t)
        if n is not None and n <= limit:
            ends = {}
            for b, _ in _entering(g, _check_subset(g, t)):
                refs = [(EdgeRef(b.name, i),) for i in range(b.multiplicity)]
                ends.setdefault(b.source, []).extend(refs)
            paths = list(entry_paths(g, t, "the set"))
            exits = _entry_exits(g, _check_subset(g, t), "the set")
            assert_listing(g, (), exits, paths, sorted_listing(g, ends))
            compared += 1
    return compared


@SETTINGS
@given(st.one_of(graphs(), acyclic_graphs()))
def test_listings_match_sorted_listing(g):
    check_listings(g)


def test_listings_order_edge_indices_numerically():
    # e10 sorts before e2 by name, and index 10 after index 9 by number
    g = Graph(
        ("u", "v", "w"),
        (Bundle("e2", "u", "v", 12), Bundle("e10", "u", "v"), Bundle("f", "v", "w", 11)),
    )
    assert check_listings(g) == 6
    texts = listed_texts(g, ("w",), {})
    assert texts[1:3] == ["f#0", "f#1"] and texts[11] == "f#10"
    assert texts[12:14] == ["e10f#0", "e10f#1"] and texts[23] == "e2#0f#0"
    paths = _paths_ending(g, positions(g, ("w",)), {})
    assert [p.edges for p in paths[11:13]] == [
        (EdgeRef("f", 10),),
        (EdgeRef("e10"), EdgeRef("f")),
    ]
    assert paths[23].edges == (EdgeRef("e2"), EdgeRef("f"))


def test_listings_match_sorted_listing_on_the_acyclic_sweep():
    checked = 0
    for g in acyclic_sweep_graphs():
        checked += 1
        assert check_listings(g, each_vertex=False)
    assert checked == 18736


_INDEX = re.compile(r"#(\d+)")


def segmentation_parse(g, text):
    """``parse_path`` by listing every segmentation of the text and checking each."""
    if g.has_vertex(text):
        return g.vertex_path(text)
    names = {b.name for b in g.bundles}
    lengths = sorted({len(name) for name in names}, reverse=True)
    end_of_text = len(text)
    atoms = {}
    todo = [0]
    while todo:
        pos = todo.pop()
        if pos in atoms or pos == end_of_text:
            continue
        found = []
        for length in lengths:
            end = pos + length
            name = text[pos:end]
            if len(name) != length or name not in names:
                continue
            index = 0
            after = end
            if text[end : end + 1] == "#":
                m = _INDEX.match(text, end)
                if not m:
                    continue
                index = int(m.group(1))
                after = m.end()
            elif g.bundle(name).multiplicity != 1:
                continue
            found.append((EdgeRef(name, index), after))
            todo.append(after)
        atoms[pos] = found
    table = {end_of_text: [()]}
    for pos in sorted(atoms, reverse=True):
        table[pos] = [(ref,) + tail for ref, after in atoms[pos] for tail in table[after]]
    valid = []
    for refs in table[0]:
        try:
            p = Path(edges=refs)
            g.check_path(p)
        except GraphError:
            continue
        valid.append(p)
    if not valid:
        raise ContractError(f"cannot parse path {text!r}")
    if len(valid) > 1:
        raise ContractError(f"ambiguous path {text!r}: {len(valid)} readings")
    return valid[0]


@st.composite
def parse_cases(draw):
    """A graph with overlapping bundle names and a text over them, indices and junk."""
    n = draw(st.integers(1, 3))
    vs = tuple(f"v{i}" for i in range(n))
    vertex = st.sampled_from(vs)
    pool = st.sampled_from(["a", "aa", "ab", "b", "ba", "a1", "b12"])
    names = draw(st.lists(pool, min_size=1, max_size=5, unique=True))
    mult = st.sampled_from((1, 1, 2, 12, OMEGA))
    g = Graph(vs, tuple(Bundle(x, draw(vertex), draw(vertex), draw(mult)) for x in names))
    pieces = st.sampled_from(names + ["#0", "#1", "#11", "#", "c", "v0"])
    return g, "".join(draw(st.lists(pieces, min_size=0, max_size=9)))


def parse_outcome(parse, g, text):
    try:
        return parse(g, text)
    except ContractError as err:
        return str(err)


@SETTINGS
@given(parse_cases())
def test_parse_path_matches_segmentation_listing(case):
    g, text = case
    assert parse_outcome(parse_path, g, text) == parse_outcome(segmentation_parse, g, text)


# -- the CLI's JSON writer and rep rows ------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral text
_JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é✓ω\u2028\U0001d11e'),
        st.characters(),
    ),
    max_size=8,
)
_JSON_SCALARS = st.one_of(
    _JSON_TEXT,
    st.integers(-1000, 1000),
    st.integers(-(10**60), 10**60),
    st.booleans(),
    st.none(),
    st.floats(),
)
_Pair = namedtuple("_Pair", "first second")


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_JSON_TEXT, max_size=4),
        st.lists(st.integers(-(10**30), 10**30), max_size=4),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
        st.dictionaries(st.integers(-50, 50), children, max_size=3),
        st.dictionaries(_JSON_TEXT, children, max_size=3).map(OrderedDict),
        st.tuples(children, children).map(lambda t: _Pair(*t)),
    )


@settings(max_examples=600, deadline=None, database=None)
@given(st.recursive(_JSON_SCALARS, _containers, max_leaves=30))
def test_json_writer_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(acyclic_graphs())
def test_rep_rows_match_fraction_matrices(g):
    R = build_rho(g)
    for label in R.generator_labels():
        rows = _matrix_rows(R.generator_map(label), R.dimension)
        assert rows == [[int(x) for x in row] for row in R.matrix(label)]
        assert all(type(x) is int for row in rows for x in row)


# -- closures: saturation counters, the tree-mask fixpoint, the line check ---------


def counter_saturation_rounds(g, h):
    """Yield the hereditary set ``h``, then each round's vertices.

    Each regular vertex outside ``h`` counts its bundles still leaving the set and joins
    the round after that count reaches 0.
    """
    hset = set(h)
    leaving = {
        v: sum(b.range not in hset for b in g.out_bundles(v))
        for v in g.vertices
        if classify_vertex(g, v) is VertexClass.REGULAR and v not in hset
    }
    yield hset
    adjoined = [v for v, n in leaving.items() if n == 0]
    while adjoined:
        yield adjoined
        joining = []
        for w in adjoined:
            for b in g.in_bundles(w):
                if b.source in leaving:
                    leaving[b.source] -= 1
                    if leaving[b.source] == 0:
                        joining.append(b.source)
        adjoined = joining


def counter_saturation_stages(g, h):
    stages = accumulate(counter_saturation_rounds(g, h), set.union)
    return [tuple(v for v in g.vertices if v in s) for s in stages]


@SETTINGS
@given(graphs())
def test_saturation_matches_counter_rounds(g):
    for r in range(len(g.vertices) + 1):
        for h in combinations(g.vertices, r):
            if not is_hereditary(g, h):
                with pytest.raises(ContractError, match="^saturation requires a hereditary set$"):
                    saturate(g, h)
                continue
            stages = counter_saturation_stages(g, h)
            assert saturation_stages(g, h) == stages
            assert saturate(g, h) == stages[-1]


def fixpoint_tree_masks(g):
    """Passes over the walk order, each vertex ORing in its successors' masks, until none grows."""
    bit = {v: 1 << g.vertex_index(v) for v in g.vertices}
    tree = dict.fromkeys(g.vertices, 0)
    order = name_keyed_tables(g)["_order"]
    grew = True
    while grew:
        grew = False
        for v in order:
            m = bit[v]
            for b in g.out_bundles(v):
                m |= tree[b.range]
            if m != tree[v]:
                tree[v] = m
                grew = True
    return [tree[v] for v in g.vertices]


@SETTINGS
@given(graphs(max_vertices=10))
def test_tree_masks_match_fixpoint(g):
    bit = {v: 1 << g.vertex_index(v) for v in g.vertices}
    trees, ranges = ideals._walk_masks(g)
    assert trees == fixpoint_tree_masks(g)
    assert trees == [sum(bit[w] for w in tree_of(g, v)) for v in g.vertices]
    assert ranges == [
        (bit[v], sum({bit[b.range] for b in g.out_bundles(v)}))
        for v in name_keyed_tables(g)["_order"]
        if classify_vertex(g, v) is VertexClass.REGULAR
    ]


def whole_graph_line_through(g, v):
    """Every line point of the graph decided, then the line walked."""
    g.vertex_index(v)
    if v not in line_points(g):
        raise ContractError(f"{v!r} is not a line point")
    chain, edges = [v], []
    while g.out_bundles(chain[-1]):
        b = g.out_bundles(chain[-1])[0]
        edges.append(EdgeRef(b.name, 0))
        chain.append(b.range)
    return tuple(chain), tuple(edges)


def line_outcome(walk, g, v):
    try:
        return walk(g, v)
    except ContractError as exc:
        return str(exc)


@SETTINGS
@given(graphs())
def test_line_through_matches_whole_graph_check(g):
    for v in g.vertices:
        assert line_outcome(line_through, g, v) == line_outcome(whole_graph_line_through, g, v)


# -- criterion 8's growth oracle: count matrices against bit rows ----------------


def matrix_growth_doubles(g, horizon=12):
    """Criterion 8's oracle on count matrices capped at 2, multiplied entry by entry."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    a = [[0] * n for _ in range(n)]
    for b in g.bundles:
        w = 2 if is_omega(b.multiplicity) else min(b.multiplicity, 2)
        a[idx[b.source]][idx[b.range]] = min(2, a[idx[b.source]][idx[b.range]] + w)
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


@SETTINGS
@given(graphs(), st.integers(1, 12))
def test_growth_bit_rows_match_count_matrices(g, horizon):
    assert _growth_doubles(g, horizon) == matrix_growth_doubles(g, horizon)


def test_sampled_sweep_is_every_step_th_sweep_graph():
    assert list(sampled_sweep_graphs(7, 3, 4)) == list(islice(sweep_graphs(3, 4), 0, None, 7))


def test_growth_bit_rows_match_count_matrices_on_the_sweep():
    graphs_seen = 0
    for g in sampled_sweep_graphs(16):
        graphs_seen += 1
        assert _growth_doubles(g) == matrix_growth_doubles(g), g
    assert graphs_seen == -(-127771 // 16)


# -- path checks: three bundle lookups per edge; edge maps by label ---------------


def three_lookup_check_path(g, p):
    """``check_path`` as it was: every edge through the old ``check_edge``, then
    ``range_of`` and ``source_of`` per consecutive pair, each a bundle lookup."""
    if p.length == 0:
        g.vertex_index(p.vertex)
        return
    for ref in p.edges:
        b = g.bundle(ref.bundle)
        if ref.index < 0:
            raise ContractError(f"edge index must be nonnegative: {ref}")
        if not is_omega(b.multiplicity) and ref.index >= b.multiplicity:
            raise ContractError(
                f"edge index {ref.index} out of range for bundle {b.name!r} "
                f"of multiplicity {b.multiplicity}"
            )
    for a, b in zip(p.edges, p.edges[1:]):
        if g.range_of(a) != g.source_of(b):
            raise ContractError(
                f"edges {a} and {b} do not compose: "
                f"{g.range_of(a)!r} != {g.source_of(b)!r}"
            )


def path_check_outcome(check, range_of_path, g, p):
    """("ok", range) when ``check`` accepts ``p``, else the exception's type and message."""
    try:
        check(g, p)
    except GraphError as exc:
        return type(exc), str(exc)
    return "ok", range_of_path(g, p)


def assert_same_path_check(g, p):
    reference = path_check_outcome(three_lookup_check_path, Graph.path_range, g, p)
    assert path_check_outcome(Graph.check_path, Graph.path_range, g, p) == reference
    assert path_check_outcome(Graph.check_path, Graph._checked_range, g, p) == reference
    return reference


@st.composite
def checked_paths(draw):
    """A graph with multiplicities 1, 2 and omega, and a path to check on it.

    Walks follow out-bundles and are valid; each other kind breaks one: an
    unknown bundle, an index below 0 or at the multiplicity, a pair that
    does not compose, an invalid edge after such a pair, an unknown vertex.
    """
    g = draw(graphs())
    kind = draw(st.sampled_from(("walk", "vertex", "unknown_bundle", "bad_index", "no_compose", "bad_after_no_compose", "unknown_vertex", "any")))
    if kind == "vertex":
        return g, Path(vertex=draw(st.sampled_from(g.vertices)))
    if kind == "unknown_vertex":
        return g, Path(vertex="nowhere")

    def edge_of(b):
        top = 5 if b.multiplicity is OMEGA else b.multiplicity - 1
        return EdgeRef(b.name, draw(st.integers(0, top)))

    edges = []
    if g.bundles:
        if kind == "any":
            for _ in range(draw(st.integers(1, 5))):
                edges.append(edge_of(draw(st.sampled_from(g.bundles))))
        else:
            v = draw(st.sampled_from(g.vertices))
            for _ in range(draw(st.integers(1, 5))):
                if not g.out_bundles(v):
                    break
                b = draw(st.sampled_from(g.out_bundles(v)))
                edges.append(edge_of(b))
                v = b.range
    if not edges:
        return g, Path(vertex=g.vertices[0])
    at = draw(st.integers(0, len(edges) - 1))
    finite = [b for b in g.bundles if b.multiplicity is not OMEGA]
    if kind == "unknown_bundle":
        edges[at] = EdgeRef("nope", 0)
    elif kind == "bad_index" or (kind == "bad_after_no_compose" and not finite):
        b = g.bundle(edges[at].bundle)
        low = draw(st.booleans()) or b.multiplicity is OMEGA
        edges[at] = EdgeRef(b.name, -1 if low else b.multiplicity)
    elif kind in ("no_compose", "bad_after_no_compose"):
        # an edge whose source is not the range of the edge before it
        misfits = [b for b in g.bundles if b.source != g.range_of(edges[-1])]
        if misfits:
            edges.append(edge_of(draw(st.sampled_from(misfits))))
        if kind == "bad_after_no_compose":
            b = draw(st.sampled_from(finite))
            edges.append(EdgeRef(b.name, b.multiplicity))
    return g, Path(edges=tuple(edges))


@SETTINGS
@given(checked_paths())
def test_check_path_matches_three_lookups(case):
    assert_same_path_check(*case)


@pytest.mark.parametrize(
    "atoms, error, message",
    [
        ((("e", 1), ("f", 3)), None, "w"),
        ("v", None, "v"),
        ("nowhere", UnknownNameError, "unknown vertex 'nowhere'"),
        ((("e", 0), ("x", 0)), UnknownNameError, "unknown bundle 'x'"),
        ((("e", 0), ("f", -1)), ContractError, "edge index must be nonnegative: EdgeRef(bundle='f', index=-1)"),
        ((("e", 2), ("f", 0)), ContractError, "edge index 2 out of range for bundle 'e' of multiplicity 2"),
        (
            (("f", 0), ("e", 0)),
            ContractError,
            "edges EdgeRef(bundle='f', index=0) and EdgeRef(bundle='e', index=0) do not compose: 'w' != 'u'",
        ),
        # the pair f e does not compose, but the bad edge after it is reported first
        ((("f", 0), ("e", 0), ("e", 2)), ContractError, "edge index 2 out of range for bundle 'e' of multiplicity 2"),
        ((("f", 0), ("e", 0), ("x", 0)), UnknownNameError, "unknown bundle 'x'"),
    ],
    ids=[
        "valid", "vertex", "unknown_vertex", "unknown_bundle", "negative_index", "index_past_multiplicity",
        "no_compose", "bad_index_after_no_compose", "unknown_bundle_after_no_compose",
    ],
)
def test_check_path_cases_and_precedence(atoms, error, message):
    g = Graph(("u", "v", "w"), (Bundle("e", "u", "v", 2), Bundle("f", "v", "w", OMEGA)))
    p = Path(vertex=atoms) if isinstance(atoms, str) else Path(edges=tuple(EdgeRef(*a) for a in atoms))
    assert assert_same_path_check(g, p) == ("ok" if error is None else error, message)


def index_edge_maps(R):
    """Each edge's (s_e, s_e*), looking the path e p up in a basis index for every basis path p at r(e)."""
    g = R.graph
    basis = R.basis
    index = {p: i for i, p in enumerate(basis)}
    maps = {}
    for ref in g.edge_refs():
        head = (ref,)
        fwd = {
            i: index[Path(edges=head + basis[i].edges)]
            for i in R.vertex_map(g.range_of(ref))
        }
        maps[ref] = (fwd, {j: i for i, j in fwd.items()})
    return maps


def edge_table(R):
    """Each edge's (s_e, s_e*), read from R by ``EdgeRef``."""
    return {ref: (R.edge_map(ref), R.edge_star_map(ref)) for ref in R.graph.edge_refs()}


def test_edge_maps_match_index_lookups_on_the_acyclic_sweep():
    checked = 0
    for g in base_graphs():
        if has_cycle(g):
            continue
        checked += 1
        R = build_rho(g)
        assert edge_table(R) == index_edge_maps(R)
    assert checked == 3442


@settings(max_examples=120, deadline=None, database=None)
@given(acyclic_graphs())
def test_edge_map_table_matches_labelled_maps(g):
    R = build_rho(g)
    refs = g.edge_refs()
    assert [x for kind, x in R._maps if kind == "s"] == list(refs)
    assert edge_table(R) == index_edge_maps(R)
    for ref in refs:
        label = f"s_{render_edge_ref(g, ref)}"
        assert R.edge_map(ref) == R.generator_map(label)
        assert R.edge_star_map(ref) == R.generator_map(label + "*")
        # the labels name the edge's own maps
        assert R._keys[label] == ("s", ref) and R._keys[label + "*"] == ("s*", ref)


def labelled_generators(R):
    """Each generator's partial map under its label, built as the labelled table was.

    ``p_<v>`` per vertex, then ``s_<edge>`` and ``s_<edge>*`` per entry of
    ``edge_refs``, with the edge text of ``render_edge_ref``.
    """
    g = R.graph
    by_source = {v: [] for v in g.vertices}
    by_first_edge = {ref: [] for ref in g.edge_refs()}
    for i, p in enumerate(R.basis):
        by_source[g.path_source(p)].append(i)
        if p.edges:
            by_first_edge[p.edges[0]].append(i)
    maps = {f"p_{v}": {i: i for i in at} for v, at in by_source.items()}
    for ref, starting in by_first_edge.items():
        at_range = by_source[g.range_of(ref)]
        name = render_edge_ref(g, ref)
        maps[f"s_{name}"] = dict(zip(at_range, starting))
        maps[f"s_{name}*"] = dict(zip(starting, at_range))
    return maps


@settings(max_examples=120, deadline=None, database=None)
@given(st.one_of(acyclic_graphs(), trees()))
def test_labels_match_labelled_generators(g):
    R = build_rho(g)
    maps = labelled_generators(R)
    assert R.generator_labels() == tuple(maps)
    for label, m in maps.items():
        assert R.generator_map(label) == m
    # per block, the labels of the maps defined somewhere in it, in label order
    acting = [{} for _ in R.classes]
    for label, m in maps.items():
        for j in m:
            acting[R.class_of[j]][label] = None
    assert R.block_labels == tuple(map(tuple, acting))


@pytest.mark.parametrize(
    "labels, change, message",
    [
        # s_f#1 also sends ef#0 to itself, which does not start at v
        (("s_f#1",), lambda m: m.__setitem__(3, 3), r"^relation p s = s = s p fails for f#1$"),
        # s_f#1* also sends w to itself, which is not in the image of s_f#1
        (("s_f#1*",), lambda m: m.__setitem__(0, 0), r"^relation p s\* = s\* = s\* p fails for f#1$"),
        (("s_f#1*",), dict.popitem, r"^s_f#1\* is not the inverse of s_f#1$"),
        # both emptied: every relation of e holds but s_e* s_e = p_v
        (("s_e", "s_e*"), dict.clear, r"^relation s\*e se fails$"),
        (("p_u",), lambda m: m.__setitem__(0, 0), r"^relation p_v = sum s_e s_e\* fails at 'u'$"),
    ],
    ids=["p_s_s_p", "p_sstar_sstar_p", "inverse", "sstar_s", "vertex_sum"],
)
def test_relation_checks_read_the_labelled_maps_in_place(labels, change, message):
    # u -e-> v =f#0,f#1=> w: basis w, f#0, f#1, ef#0, ef#1
    g = Graph(("u", "v", "w"), (Bundle("e", "u", "v"), Bundle("f", "v", "w", 2)))
    R = build_rho(g)
    verify_relations(R)
    for label in labels:
        change(live_map(R, label))
    with pytest.raises(InternalInvariantError, match=message):
        verify_relations(R)
