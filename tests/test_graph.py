"""Graph model: classification, cycles, reachability, saturation."""

import pickle
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from leavitt import (
    FIXTURES,
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    Monomial,
    Path,
    VertexClass,
    breaking_vertices,
    classify_vertex,
    concat,
    count_paths_into,
    downward_directed,
    has_cycle,
    is_hereditary,
    is_omega,
    is_saturated,
    line_points,
    paths_into,
    render_edge_ref,
    render_path,
    saturate,
    saturation_stages,
    simple_cycles,
    singular_vertices,
    strongly_connected_components,
    tree_of,
    vertices_on_cycles,
)
from leavitt.errors import (
    ContractError,
    GraphError,
    NotFinitelyPresentableError,
    UnknownNameError,
)
from leavitt.graph import (
    _text_head,
    count_entry_paths,
    escaping_edges,
    line_through,
    out_degree,
    path_key,
    strip_prefix,
)

from sweeputil import random_graph

LINE3 = FIXTURES["LINE3"]
ENTRY4 = FIXTURES["ENTRY4"]
FORK = FIXTURES["FORK"]
LOOP1 = FIXTURES["LOOP1"]
ROSE2 = FIXTURES["ROSE2"]
OMEGA1 = FIXTURES["OMEGA"]
OMEGA2 = FIXTURES["OMEGA2"]


MULTIPLICITY_ERROR = "bundle 'e': multiplicity must be a positive integer or omega"


def subsets(vs):
    for k in range(len(vs) + 1):
        yield from combinations(vs, k)


# -- construction and validation -------------------------------------------


def test_graph_rejects_bad_presentations():
    with pytest.raises(GraphError):
        Graph(("v", "v"))
    with pytest.raises(GraphError):
        Graph(("v",), (Bundle("e", "v", "x"),))
    with pytest.raises(GraphError):
        Graph(("v",), (Bundle("e", "x", "v"),))
    with pytest.raises(GraphError):
        Graph(("v",), (Bundle("e", "v", "v", 0),))
    with pytest.raises(GraphError):
        Graph(("v",), (Bundle("e", "v", "v"), Bundle("e", "v", "v")))
    with pytest.raises(GraphError):
        Graph(("bad name",))


@pytest.mark.parametrize(
    "vertices, bundles, message",
    [
        (("v", 3), (), "invalid vertex name 3"),
        (("v", "bad name"), (), "invalid vertex name 'bad name'"),
        (("v", "v"), (), "duplicate vertex name 'v'"),
        (("v",), (Bundle("bad-name", "v", "v"),), "invalid bundle name 'bad-name'"),
        (("v",), (Bundle(None, "v", "v"),), "invalid bundle name None"),
        (("v",), (Bundle("e", "v", "v"), Bundle("e", "v", "v")), "duplicate bundle name 'e'"),
        (("v",), (Bundle("e", "x", "v"),), "bundle 'e': unknown source 'x'"),
        (("v",), (Bundle("e", "v", "x"),), "bundle 'e': unknown range 'x'"),
        (("v",), (Bundle("e", "v", "v", 0),), MULTIPLICITY_ERROR),
        (("v",), (Bundle("e", "v", "v", 1.0),), MULTIPLICITY_ERROR),
        (("v",), (Bundle("e", "v", "v", "omega"),), MULTIPLICITY_ERROR),
        (("u", "v"), (Bundle("e", "u", "v", True),), MULTIPLICITY_ERROR),
        (("u", "v"), (Bundle("e", "u", "v", False),), MULTIPLICITY_ERROR),
        # vertex errors come before bundle errors
        (("v", "v"), (Bundle("e", "x", "y", 0),), "duplicate vertex name 'v'"),
        # bundle errors in declared order
        (("v",), (Bundle("e", "v", "x"), Bundle("f", "x", "v")), "bundle 'e': unknown range 'x'"),
        (("v",), (Bundle("e", "v", "v"), Bundle("f", "x", "v", 0)), "bundle 'f': unknown source 'x'"),
        # within a bundle: name, duplicate, source, range, then multiplicity
        (("v",), (Bundle("bad name", "x", "y", 0),), "invalid bundle name 'bad name'"),
        (("v",), (Bundle("e", "v", "v"), Bundle("e", "x", "y", 0)), "duplicate bundle name 'e'"),
        (("v",), (Bundle("e", "x", "y", 0),), "bundle 'e': unknown source 'x'"),
        (("v",), (Bundle("e", "v", "y", 0),), "bundle 'e': unknown range 'y'"),
    ],
)
def test_construction_errors_name_the_first_fault(vertices, bundles, message):
    with pytest.raises(GraphError) as err:
        Graph(vertices, bundles)
    assert str(err.value) == message


def test_equal_presentations_give_equal_graphs():
    def build():
        return Graph(("u", "v"), (Bundle("e", "u", "v", 2), Bundle("h", "v", "v", OMEGA)))

    g, h = build(), build()
    assert g == h and hash(g) == hash(h)
    assert repr(g) == (
        "Graph(vertices=('u', 'v'), bundles=(Bundle(name='e', source='u', range='v', "
        "multiplicity=2), Bundle(name='h', source='v', range='v', multiplicity=omega)))"
    )
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g) and repr(copy) == repr(g)
    assert copy.bundle("h").multiplicity is OMEGA
    assert classify_vertex(copy, "v") is VertexClass.INFINITE_EMITTER
    assert strongly_connected_components(copy) == (("u",), ("v",))
    assert count_paths_into(copy, "v") is None and vertices_on_cycles(copy) == ("v",)


def test_path_is_vertex_or_edges():
    message = "a path is a vertex or a nonempty edge sequence, not both"
    with pytest.raises(ContractError, match=message):
        Path()
    with pytest.raises(ContractError, match=message):
        Path(None, ())
    with pytest.raises(ContractError, match=message):
        Path(vertex="v", edges=(LINE3.edge("e"),))
    with pytest.raises(ContractError, match=message):
        Path._make((None, ()))
    with pytest.raises(ContractError, match=message):
        LINE3.vertex_path("u")._replace(edges=(LINE3.edge("e"),))
    assert LINE3.vertex_path("u").length == 0
    assert LINE3.path("e", "f").length == 2
    # bundle names, EdgeRefs and (name, index) pairs build the same path
    assert LINE3.path(EdgeRef("e"), ("f", 0)) == LINE3.path("e", "f")


def test_value_types_keep_their_reprs_and_pickle():
    e = LINE3.edge("e")
    p = LINE3.path("e", "f")
    w = LINE3.vertex_path("w")
    m = Monomial(p, w)
    b = OMEGA1.bundle("h")
    assert repr(e) == "EdgeRef(bundle='e', index=0)"
    assert repr(p) == (
        "Path(vertex=None, edges=(EdgeRef(bundle='e', index=0), EdgeRef(bundle='f', index=0)))"
    )
    assert repr(w) == "Path(vertex='w', edges=())"
    assert repr(m) == f"Monomial(alpha={p!r}, beta={w!r})"
    assert repr(b) == "Bundle(name='h', source='v', range='w', multiplicity=omega)"
    assert EdgeRef("e") == e and Bundle("e", "u", "v") == LINE3.bundle("e")
    for x in (e, p, w, m, b):
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and type(copy) is type(x) and hash(copy) == hash(x)
        assert repr(copy) == repr(x)
    assert pickle.loads(pickle.dumps(b)).multiplicity is OMEGA


def test_path_composability_checked():
    with pytest.raises(ContractError):
        LINE3.path("f", "e")
    with pytest.raises(ContractError):
        LINE3.edge("e", 1)
    # any index is fine on an omega bundle
    OMEGA1.edge("h", 10 ** 6)


def test_path_helpers():
    p = LINE3.path("e")
    q = LINE3.path("f")
    pq = concat(p, q)
    assert pq.edges == LINE3.path("e", "f").edges
    assert concat(LINE3.vertex_path("u"), p) == p
    assert concat(p, LINE3.vertex_path("v")) == p
    assert strip_prefix(LINE3, pq, p) == q
    assert strip_prefix(LINE3, pq, pq) == LINE3.vertex_path("w")
    assert path_key(LINE3.vertex_path("u")) < path_key(p) < path_key(pq)


def test_render_elides_index_only_for_multiplicity_one():
    g = Graph(("u", "v", "w"), (Bundle("e", "u", "v", 2), Bundle("f", "v", "w")))
    assert render_edge_ref(g, g.edge("e", 0)) == "e#0"
    assert render_edge_ref(g, g.edge("e", 1)) == "e#1"
    assert render_edge_ref(g, g.edge("f")) == "f"
    # a ref past a multiplicity-1 bundle keeps its index: only #0 is elided
    assert render_edge_ref(g, EdgeRef("f", 1)) == "f#1"
    assert render_path(g, g.path(("e", 1), "f")) == "e#1f"
    assert render_path(g, g.vertex_path("u")) == "u"


BUNDLES = st.lists(
    st.tuples(st.sampled_from("uvw"), st.sampled_from("uvw"), st.sampled_from((1, 2, OMEGA))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None, database=None)
@given(BUNDLES)
def test_text_head_is_the_edge_text(bundles):
    # the listings write an edge's text with _text_head, everything else with render_edge_ref
    g = Graph(("u", "v", "w"), tuple(Bundle(f"e{k}", *b) for k, b in enumerate(bundles)))
    for b in g.bundles:
        for i in range(3 if is_omega(b.multiplicity) else b.multiplicity):
            assert _text_head(b, i) == render_edge_ref(g, EdgeRef(b.name, i))


# -- vertex classification --------------------------------------------------


def test_classify_vertex():
    assert classify_vertex(LINE3, "w") is VertexClass.SINK
    assert classify_vertex(LINE3, "u") is VertexClass.REGULAR
    assert classify_vertex(OMEGA2, "v") is VertexClass.INFINITE_EMITTER
    with pytest.raises(UnknownNameError):
        classify_vertex(LINE3, "nope")


def test_classification_partitions_vertices():
    for g in FIXTURES.values():
        tags = [classify_vertex(g, v) for v in g.vertices]
        assert len(tags) == len(g.vertices)
        assert set(singular_vertices(g)) == {
            v for v in g.vertices if classify_vertex(g, v) is not VertexClass.REGULAR
        }


def test_out_degree():
    assert out_degree(LINE3, "u") == 1
    assert out_degree(FORK, "u") == 2
    assert out_degree(LINE3, "w") == 0
    assert out_degree(OMEGA2, "v") is OMEGA


# -- cycles ------------------------------------------------------------------


def test_simple_cycles_fixtures():
    assert len(simple_cycles(LOOP1)) == 1
    assert simple_cycles(LINE3) == ()
    assert len(simple_cycles(ROSE2)) == 2


def test_simple_cycles_expand_multiplicities():
    g = Graph(("v",), (Bundle("e", "v", "v", 2),))
    cycles = simple_cycles(g)
    assert len(cycles) == 2
    assert {c[0].index for c in cycles} == {0, 1}


def test_simple_cycles_canonical_rotation():
    g = Graph(("u", "v"), (Bundle("b", "u", "v"), Bundle("a", "v", "u")))
    cycles = simple_cycles(g)
    assert len(cycles) == 1
    # least rotation starts at the alphabetically first bundle
    assert [e.bundle for e in cycles[0]] == ["a", "b"]


def test_simple_cycles_refuse_omega_circuit():
    g = Graph(("v",), (Bundle("e", "v", "v", OMEGA),))
    with pytest.raises(NotFinitelyPresentableError):
        simple_cycles(g)


def test_simple_cycles_read_a_long_cycle_in_linear_time():
    # a circuit walk from every vertex took 5.9 s here on a 2-core VM
    n = 4000
    vs = tuple(f"v{i}" for i in range(n))
    g = Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)))
    start = time.perf_counter()
    (cycle,) = simple_cycles(g)
    assert time.perf_counter() - start < 1.0
    assert len(cycle) == n and cycle[0].bundle == "e0"


def test_cycle_vertex_sets():
    assert vertices_on_cycles(LOOP1) == ("v",)
    assert vertices_on_cycles(LINE3) == ()
    assert has_cycle(ROSE2)
    assert not has_cycle(OMEGA2)


def test_strongly_connected_components():
    g = Graph(
        ("a", "b", "c"),
        (Bundle("e", "a", "b"), Bundle("f", "b", "a"), Bundle("g", "b", "c")),
    )
    assert strongly_connected_components(g) == (("a", "b"), ("c",))
    assert strongly_connected_components(LINE3) == (("u",), ("v",), ("w",))


# -- reachability and trees ---------------------------------------------------


def test_tree_of():
    assert tree_of(LINE3, "u") == ("u", "v", "w")
    assert tree_of(FORK, "v") == ("v",)
    assert tree_of(ENTRY4, "u") == ("u", "v", "w")
    with pytest.raises(UnknownNameError):
        tree_of(LINE3, "zz")


def test_tree_is_hereditary_everywhere():
    for g in FIXTURES.values():
        for v in g.vertices:
            assert is_hereditary(g, tree_of(g, v))


def test_tree_is_hereditary_random(rng):
    for _ in range(200):
        g = random_graph(rng)
        for v in g.vertices:
            assert is_hereditary(g, tree_of(g, v))


def test_downward_directed():
    assert downward_directed(LINE3)
    assert not downward_directed(FORK)
    assert downward_directed(LOOP1)
    assert not downward_directed(OMEGA2)


# -- hereditary and saturated sets --------------------------------------------


def test_hereditary_and_saturated_examples():
    assert is_hereditary(FORK, {"v"}) and is_saturated(FORK, {"v"})
    assert is_hereditary(FORK, {"v", "w"})
    assert not is_saturated(FORK, {"v", "w"})
    assert not is_hereditary(LINE3, {"u"})


def test_saturate_examples():
    assert saturate(FORK, {"v", "w"}) == ("u", "v", "w")
    assert saturate(FORK, {"v"}) == ("v",)
    for g in FIXTURES.values():
        assert saturate(g, ()) == ()


def test_saturate_requires_hereditary():
    with pytest.raises(ContractError):
        saturate(LINE3, {"u"})


def test_unknown_vertex_in_a_set_is_refused():
    with pytest.raises(UnknownNameError, match="unknown vertex 'nope'"):
        is_hereditary(LINE3, {"w", "nope"})
    with pytest.raises(UnknownNameError, match="unknown vertex 'nope'"):
        saturate(LINE3, {"w", "nope"})


def test_a_bare_string_is_not_a_vertex_set():
    # read as a set, "ab" would be {"a", "b"}: two entry paths, and hereditary
    g = Graph(("ab", "a", "b"), (Bundle("e", "ab", "a"), Bundle("f", "ab", "b")))
    message = "a vertex set must be a collection of names, not the string 'ab'"
    for call in (count_entry_paths, is_hereditary, is_saturated, saturate, breaking_vertices):
        with pytest.raises(ContractError, match=message):
            call(g, "ab")
    with pytest.raises(ContractError, match=message):
        escaping_edges(g, "ab", "ab")
    assert count_entry_paths(g, ("ab",)) == 0 and count_entry_paths(g, ("a", "b")) == 2
    assert not is_hereditary(g, ("ab",))


def test_saturation_stages_grow_to_fixed_point():
    stages = saturation_stages(FORK, {"v", "w"})
    assert stages == [("v", "w"), ("u", "v", "w")]
    assert saturation_stages(LINE3, {"w"}) == [("w",), ("v", "w"), ("u", "v", "w")]


def test_saturate_is_a_closure_operator():
    for g in FIXTURES.values():
        hereditary = [h for h in subsets(g.vertices) if is_hereditary(g, h)]
        for h in hereditary:
            closed = set(saturate(g, h))
            assert set(h) <= closed
            assert is_saturated(g, closed) and is_hereditary(g, closed)
            assert set(saturate(g, closed)) == closed
        for h1 in hereditary:
            for h2 in hereditary:
                if set(h1) <= set(h2):
                    assert set(saturate(g, h1)) <= set(saturate(g, h2))


def test_saturate_is_least_saturated_superset():
    for g in FIXTURES.values():
        for h in subsets(g.vertices):
            if not is_hereditary(g, h):
                continue
            closed = set(saturate(g, h))
            for k in subsets(g.vertices):
                if set(h) <= set(k) and is_hereditary(g, k) and is_saturated(g, k):
                    assert closed <= set(k)


# -- breaking vertices ---------------------------------------------------------


def test_breaking_vertices_examples():
    assert breaking_vertices(OMEGA2, {"w"}) == ("v",)
    assert breaking_vertices(OMEGA1, {"w"}) == ()
    assert breaking_vertices(LINE3, ("u", "v", "w")) == ()


def test_breaking_vertices_contract():
    with pytest.raises(ContractError):
        breaking_vertices(LINE3, {"v", "w"})  # not saturated


def test_breaking_vertices_are_singular_and_need_omega(rng):
    for _ in range(200):
        g = random_graph(rng)
        finite = all(not b.multiplicity is OMEGA for b in g.bundles)
        for h in subsets(g.vertices):
            if not (is_hereditary(g, h) and is_saturated(g, h)):
                continue
            br = breaking_vertices(g, h)
            assert set(br) <= set(singular_vertices(g))
            if finite:
                assert br == ()


# -- line points ----------------------------------------------------------------


def test_line_points_fixtures():
    assert line_points(FORK) == ("v", "w")
    assert line_points(LINE3) == ("u", "v", "w")
    assert line_points(LOOP1) == ()
    assert line_points(OMEGA2) == ("u", "w")


def test_every_sink_is_a_line_point():
    for g in FIXTURES.values():
        for v in g.vertices:
            if not g.out_bundles(v):
                assert v in line_points(g)


def test_line_through_walks_the_line():
    chain, edges = line_through(LINE3, "u")
    assert chain == ("u", "v", "w")
    assert [e.bundle for e in edges] == ["e", "f"]
    assert line_through(FORK, "w") == (("w",), ())
    with pytest.raises(ContractError):
        line_through(FORK, "u")


def test_line_points_chain_stays_in_line_points():
    for g in FIXTURES.values():
        pts = set(line_points(g))
        for v in pts:
            chain, _ = line_through(g, v)
            assert set(chain) <= pts


# -- path counting ---------------------------------------------------------------


def test_count_paths_into():
    assert count_paths_into(LINE3, "w") == 3
    assert count_paths_into(FORK, "v") == 2
    assert count_paths_into(ENTRY4, "w") == 4
    assert count_paths_into(LOOP1, "v") is None
    assert count_paths_into(OMEGA1, "w") is None
    assert count_paths_into(OMEGA2, "u") == 2


def test_paths_into_matches_count():
    for g in (LINE3, ENTRY4, FORK, OMEGA2):
        for v in g.vertices:
            n = count_paths_into(g, v)
            if n is None:
                continue
            ps = paths_into(g, v)
            assert len(ps) == n
            assert len(set(ps)) == n
            for p in ps:
                assert g.path_range(p) == v
            assert list(ps) == sorted(ps, key=path_key)


def test_paths_into_refuses_infinite():
    with pytest.raises(NotFinitelyPresentableError):
        paths_into(LOOP1, "v")
    with pytest.raises(NotFinitelyPresentableError):
        paths_into(OMEGA1, "w")


def test_lookups_refuse_unknown_names():
    with pytest.raises(UnknownNameError, match="^unknown bundle 'nope'$"):
        LINE3.bundle("nope")
    for lookup in (LINE3.out_bundles, LINE3.in_bundles):
        with pytest.raises(UnknownNameError, match="^unknown vertex 'nope'$"):
            lookup("nope")
    assert LINE3.has_vertex([]) is False
    with pytest.raises(ContractError) as err:
        LINE3.check_edge(EdgeRef("e", -1))
    assert str(err.value) == f"edge index must be nonnegative: {EdgeRef('e', -1)}"


@pytest.mark.parametrize(
    "bundle, index",
    [("f", True), ("f", 1.0), ("h", 2.5), ("f", "1"), ("f", None)],
    ids=["bool", "float", "float_on_omega", "str", "none"],
)
def test_edge_indices_must_be_ints(bundle, index):
    # True and 1.0 were taken for edge 1 and rendered as f#True and f#1.0,
    # 2.5 was taken on the omega bundle, "1" and None raised a bare TypeError
    g = Graph(("u", "v", "w"), (Bundle("f", "u", "v", 2), Bundle("h", "v", "w", OMEGA)))
    ref = EdgeRef(bundle, index)
    message = f"edge index must be an int: {ref}"
    for check in (g.check_edge, lambda ref: g.check_path(Path(edges=(ref,)))):
        with pytest.raises(ContractError) as err:
            check(ref)
        assert str(err.value) == message


def test_escaping_edges_refuse_an_omega_bundle():
    with pytest.raises(NotFinitelyPresentableError, match="^bundle 'h' escapes"):
        escaping_edges(OMEGA1, (), "v")


def test_edge_refs_require_finite_multiplicities():
    assert len(LINE3.edge_refs()) == 2
    g = Graph(("u", "v"), (Bundle("e", "u", "v", 3),))
    assert [r.index for r in g.edge_refs()] == [0, 1, 2]
    with pytest.raises(NotFinitelyPresentableError):
        OMEGA1.edge_refs()
