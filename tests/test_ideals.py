"""Admissible pairs, quotient graphs, ideal graphs, and the graded lattice."""

import re
from itertools import combinations

import pytest

from leavitt import (
    FIXTURES,
    OMEGA,
    AdmissiblePair,
    Bundle,
    ClassCensus,
    Graph,
    admissible_pair,
    boundary,
    check_condition4,
    check_condition5,
    enumerate_admissible_pairs,
    enumerate_classes,
    graph,
    ideal_graph,
    ideals,
    is_hereditary,
    is_saturated,
    quotient_graph,
    quotient_with_map,
    tree_of,
)
from leavitt.errors import (
    ContractError,
    NotFinitelyPresentableError,
    SizeGuardError,
    UnknownNameError,
)

from sweeputil import random_graph, sampled_sweep_graphs

LINE3 = FIXTURES["LINE3"]
ENTRY4 = FIXTURES["ENTRY4"]
FORK = FIXTURES["FORK"]
LOOP1 = FIXTURES["LOOP1"]
PT = FIXTURES["PT"]
OMEGA1 = FIXTURES["OMEGA"]
OMEGA2 = FIXTURES["OMEGA2"]


def pair(g, h, s=()):
    return admissible_pair(g, h, s)


# -- admissible pairs ---------------------------------------------------------


def test_a_bare_string_is_not_h():
    # read as a set, "ab" would be {"a", "b"}, which is hereditary and saturates to g
    g = Graph(("ab", "a", "b"), (Bundle("e", "ab", "a"), Bundle("f", "ab", "b")))
    message = "a vertex set must be a collection of names, not the string 'ab'"
    for call in (
        lambda: ideal_graph(g, "ab"),
        lambda: admissible_pair(g, "ab"),
        lambda: quotient_with_map(g, AdmissiblePair("ab")),
    ):
        with pytest.raises(ContractError, match=message):
            call()
    assert ideal_graph(g, ("a", "b")) is g


def test_a_bare_string_is_not_s():
    # a breaks {b}: its one escaping edge runs to t, so "a" read as {"a"} would be valid
    message = "a vertex set must be a collection of names, not the string 'a'"
    for listed in (False, True):
        g = Graph(("a", "b", "t"), (Bundle("e", "a", "t"), Bundle("f", "a", "b", OMEGA)))
        if listed:  # ("b",) is then recorded, and only S is checked
            assert AdmissiblePair(("b",), ("a",)) in enumerate_admissible_pairs(g)
        for call in (
            lambda: admissible_pair(g, ("b",), "a"),
            lambda: quotient_with_map(g, AdmissiblePair(("b",), "a")),
            lambda: quotient_graph(g, AdmissiblePair(("b",), "a")),
        ):
            with pytest.raises(ContractError, match=message):
                call()
        assert admissible_pair(g, ("b",), ("a",)) == AdmissiblePair(("b",), ("a",))


def test_s_refuses_names_of_no_vertex_as_not_breaking():
    g = Graph(("a", "b", "t"), (Bundle("e", "a", "t"), Bundle("f", "a", "b", OMEGA)))
    for listed in (False, True):
        if listed:  # ("b",) is then recorded, and only S is checked
            enumerate_admissible_pairs(g)
        cases = [(("zz",), "['zz']"), (("a", "zz"), "['a', 'zz']"), (("t",), "['t']")]
        cases.append((("zz", 3), "[3, 'zz']"))  # sorting the names raised a bare TypeError
        for s, got in cases:
            with pytest.raises(ContractError) as err:
                admissible_pair(g, ("b",), s)
            assert type(err.value) is ContractError
            assert str(err.value) == f"S must consist of breaking vertices of H; got {got}"
        # with an unhashable member, S is refused as H is: by its first member naming no vertex
        for s, first in (((["u"], "zz"), "['u']"), (("zz", ["u"]), "'zz'")):
            with pytest.raises(UnknownNameError) as err:
                admissible_pair(g, ("b",), s)
            assert str(err.value) == f"unknown vertex {first}"
    with pytest.raises(ContractError, match="H must be hereditary"):
        admissible_pair(g, ("a",), ("zz",))  # H is checked before S's membership


def test_admissible_pair_validation():
    p = pair(FORK, {"v"})
    assert p.h == ("v",) and p.s == ()
    with pytest.raises(ContractError):
        pair(FORK, {"v", "w"})  # hereditary but not saturated
    with pytest.raises(ContractError):
        pair(LINE3, {"u"})  # not hereditary
    assert pair(OMEGA2, {"w"}, {"v"}).s == ("v",)
    with pytest.raises(ContractError):
        pair(OMEGA2, {"w"}, {"u"})  # u is not a breaking vertex


def test_pair_components_follow_vertex_order():
    p = pair(OMEGA2, {"w", "u"})
    assert p.h == ("u", "w")  # OMEGA2 declares (v, u, w)


def test_enumerate_admissible_pairs_line3():
    # L(LINE3) is the 3x3 matrix algebra, which is simple: only the two
    # trivial graded ideals exist.
    pairs = enumerate_admissible_pairs(LINE3)
    assert [p.h for p in pairs] == [(), ("u", "v", "w")]
    assert all(p.s == () for p in pairs)


def test_enumerate_admissible_pairs_fixtures():
    assert len(enumerate_admissible_pairs(LOOP1)) == 2
    assert len(enumerate_admissible_pairs(PT)) == 2
    assert len(enumerate_admissible_pairs(ENTRY4)) == 2
    # FORK: H in {0, {v}, {w}, all}
    assert [p.h for p in enumerate_admissible_pairs(FORK)] == [
        (),
        ("v",),
        ("w",),
        ("u", "v", "w"),
    ]


def test_enumerate_admissible_pairs_with_breaking_vertex():
    pairs = enumerate_admissible_pairs(OMEGA2)
    assert [(p.h, p.s) for p in pairs] == [
        ((), ()),
        (("u",), ()),
        (("w",), ()),
        (("w",), ("v",)),
        (("u", "w"), ()),
        (("v", "u", "w"), ()),
    ]


def test_enumeration_guard():
    big = Graph(tuple(f"v{i}" for i in range(21)))
    with pytest.raises(SizeGuardError):
        enumerate_admissible_pairs(big)


def test_lattice_closed_under_meet(rng):
    graphs = list(FIXTURES.values()) + [random_graph(rng) for _ in range(80)]
    for g in graphs:
        hs = [set(p.h) for p in enumerate_admissible_pairs(g) if not p.s]
        for h1, h2 in combinations(hs, 2):
            meet = h1 & h2
            assert is_hereditary(g, meet) and is_saturated(g, meet)


# -- quotient graphs -------------------------------------------------------------


def test_quotient_trivial_pairs():
    assert quotient_graph(FORK, pair(FORK, ())) == FORK
    full = quotient_graph(FORK, pair(FORK, FORK.vertices))
    assert full.vertices == () and full.bundles == ()


def test_trivial_derived_graphs_build_no_graph(monkeypatch):
    empty = Graph(())
    built = []
    restricted = ideals._restricted

    def counted(g, *args):
        built.append(g)
        return restricted(g, *args)

    monkeypatch.setattr(ideals, "_restricted", counted)
    for g in FIXTURES.values():
        assert ideal_graph(g, g.vertices) is g
        assert ideal_graph(g, ()) == empty
        q, origin = quotient_with_map(g, pair(g, ()))
        assert q is g and origin == {v: ("real", v) for v in g.vertices}
        assert quotient_with_map(g, pair(g, g.vertices)) == (empty, {})
    assert ideal_graph(LINE3, {"w"}) is LINE3  # {w} saturates to every vertex
    assert built == []
    ideal_graph(FORK, {"v"})
    quotient_graph(FORK, pair(FORK, {"v"}))
    assert len(built) == 2  # every other derived graph is still built


@pytest.mark.parametrize("value", [(("v",), ()), None, FORK.vertices, {"h": ("v",)}])
def test_a_quotient_refuses_what_is_no_pair(value):
    for call in (quotient_graph, quotient_with_map):
        with pytest.raises(ContractError, match=f"AdmissiblePair, not {re.escape(repr(value))}$"):
            call(FORK, value)


def test_derived_graphs_and_censuses_read_the_parent_tables(monkeypatch):
    graphs = [*FIXTURES.values(), *sampled_sweep_graphs(64)]  # built before the patches

    def refuse(*args, **kwargs):
        raise AssertionError("a derived graph or a census re-derived a known fact")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    monkeypatch.setattr(graph, "_components", refuse)
    for module in (graph, boundary):
        monkeypatch.setattr(module, "simple_cycles", refuse, raising=False)
    monkeypatch.setattr(boundary, "boundary_path", refuse)
    built = 0
    for g in graphs:
        derived = [g]
        for p in enumerate_admissible_pairs(g):
            derived.append(quotient_with_map(g, p)[0])
        for h in {tree_of(g, v) for v in g.vertices}:  # hereditary, listed or not
            try:
                derived.append(ideal_graph(g, h))
            except NotFinitelyPresentableError:
                pass
        for d in derived:
            assert isinstance(enumerate_classes(d), ClassCensus)
        built += sum(d.vertices not in ((), g.vertices) for d in derived)
    assert built > len(graphs)


def test_listed_pairs_are_not_checked_again(monkeypatch):
    calls = []
    for check in ("_check_subset", "_hereditary", "_saturated", "_breaking_vertices", "_rounds"):
        real = getattr(ideals, check)

        def counted(*args, _check=check, _real=real):
            calls.append(_check)
            return _real(*args)

        monkeypatch.setattr(ideals, check, counted)
    for name, fixture in FIXTURES.items():
        g = Graph(fixture.vertices, fixture.bundles)
        pairs = enumerate_admissible_pairs(g)
        calls.clear()
        for p in pairs:
            assert admissible_pair(g, p.h, p.s) == p
            quotient_graph(g, p)
            try:
                ideal_graph(g, p.h)
            except NotFinitelyPresentableError:
                pass
        assert calls == [], name
        admissible_pair(g, list(pairs[0].h))  # a set not given as listed is checked in full
        assert {"_check_subset", "_hereditary", "_saturated"} <= set(calls), name


def test_a_sweep_op_takes_each_census_once(monkeypatch):
    computed, asked = [], []
    census = boundary._census

    def counted(g):
        computed.append(g)
        return census(g)

    monkeypatch.setattr(boundary, "_census", counted)
    for fixture in FIXTURES.values():
        for _ in range(2):  # equal graphs, distinct instances: each takes its own census
            g = Graph(fixture.vertices, fixture.bundles)
            check_condition4(g)
            check_condition5(g)
            asked.append(g)
            total = enumerate_classes(g)
            for p in enumerate_admissible_pairs(g):
                if p.s:
                    continue
                try:
                    ideal = ideal_graph(g, p.h)
                except NotFinitelyPresentableError:
                    continue
                for derived in (ideal, quotient_graph(g, p)):
                    asked.append(derived)
                    enumerate_classes(derived)
            assert enumerate_classes(g) is total
    assert len({id(g) for g in computed}) == len(computed)  # no instance twice
    assert {id(g) for g in asked if g.vertices} == {id(g) for g in computed if g.vertices}


def test_identity_quotient_origin_is_fresh_on_each_call():
    for h in ((), FORK.vertices):
        origin = quotient_with_map(FORK, pair(FORK, h))[1]
        expected = dict(origin)
        origin["u"] = ("gap", "u")
        origin["x"] = ("real", "x")
        assert quotient_with_map(FORK, pair(FORK, h))[1] == expected


def test_quotient_deletes_ideal():
    q = quotient_graph(FORK, pair(FORK, {"v"}))
    assert q.vertices == ("u", "w")
    assert [(b.name, b.source, b.range) for b in q.bundles] == [("f", "u", "w")]


def test_quotient_with_s_drops_gap_sink():
    q = quotient_graph(OMEGA2, pair(OMEGA2, {"w"}, {"v"}))
    assert q.vertices == ("v", "u")
    assert [(b.name, b.source, b.range) for b in q.bundles] == [("g", "v", "u")]


def test_quotient_without_s_keeps_gap_sink():
    q, origin = quotient_with_map(OMEGA2, pair(OMEGA2, {"w"}))
    assert q.vertices == ("v", "u", "w_v")
    assert origin["w_v"] == ("gap", "v")
    assert origin["v"] == ("real", "v")
    assert not q.out_bundles("w_v")  # gap sinks emit nothing


def test_quotient_duplicates_edges_into_gaps():
    g = Graph(
        ("y", "x", "d", "r"),
        (
            Bundle("a", "y", "x"),
            Bundle("h", "x", "d", OMEGA),
            Bundle("c", "x", "r"),
        ),
    )
    q = quotient_graph(g, pair(g, {"d"}))
    assert q.vertices == ("y", "x", "r", "w_x")
    assert [(b.name, b.source, b.range, b.multiplicity) for b in q.bundles] == [
        ("a", "y", "x", 1),
        ("c", "x", "r", 1),
        ("f_a", "y", "w_x", 1),
    ]


def test_quotient_gap_names_avoid_collisions():
    g = Graph(
        ("v", "u", "w", "w_v"),
        (Bundle("h", "v", "w", OMEGA), Bundle("g", "v", "u")),
    )
    q = quotient_graph(g, pair(g, {"w"}))
    assert "w_v_2" in q.vertices  # the literal vertex w_v survives untouched
    assert "w_v" in q.vertices


def test_quotient_gap_sink_may_take_the_name_of_a_vertex_of_h():
    # fresh gap names avoid only the surviving vertices, so the gap sink of
    # v is named after the vertex w_v of H it stands in for
    g = Graph(("v", "w_v", "x"), (Bundle("h", "v", "w_v", OMEGA), Bundle("f", "v", "x")))
    q, origin = quotient_with_map(g, pair(g, {"w_v"}))
    assert q.vertices == ("v", "x", "w_v")
    assert q.bundles == (Bundle("f", "v", "x"),)
    assert origin == {"v": ("real", "v"), "x": ("real", "x"), "w_v": ("gap", "v")}


def test_quotient_shape_on_random_pairs(rng):
    from leavitt import breaking_vertices

    for _ in range(150):
        g = random_graph(rng)
        for p in enumerate_admissible_pairs(g):
            q, origin = quotient_with_map(g, p)
            gaps = [v for v in breaking_vertices(g, p.h) if v not in p.s]
            assert len(q.vertices) == len(g.vertices) - len(p.h) + len(gaps)
            for qv, (kind, v) in origin.items():
                if kind == "gap":
                    assert not q.out_bundles(qv)


# -- ideal graphs -----------------------------------------------------------------


def test_ideal_graph_fork():
    ig = ideal_graph(FORK, {"v"})
    assert ig.vertices == ("v", "e")
    assert [(b.name, b.source, b.range) for b in ig.bundles] == [("e", "e", "v")]


def test_ideal_graph_saturates_first():
    # {w} saturates to the whole vertex set, so the ideal is everything
    assert ideal_graph(LINE3, {"w"}) is LINE3
    assert ideal_graph(LINE3, LINE3.vertices) is LINE3


def test_ideal_graph_requires_hereditary():
    with pytest.raises(ContractError):
        ideal_graph(LINE3, {"u"})


def test_ideal_graph_entry_paths():
    # x -c> v with u -e> v escaping-free: saturation pulls x in, leaving
    # one crossing edge e whose entry path becomes a new source vertex
    g = Graph(
        ("u", "x", "v", "w"),
        (Bundle("e", "u", "v"), Bundle("f", "u", "w"), Bundle("c", "x", "v")),
    )
    ig = ideal_graph(g, {"v"})
    assert ig.vertices == ("x", "v", "e")
    assert [(b.name, b.source, b.range) for b in ig.bundles] == [
        ("c", "x", "v"),
        ("e", "e", "v"),
    ]


def test_ideal_graph_multiplicity_expansion():
    # u keeps an escape edge so {v} stays saturated
    g = Graph(
        ("u", "v", "t"),
        (Bundle("e", "u", "v", 2), Bundle("d", "u", "t")),
    )
    ig = ideal_graph(g, {"v"})
    assert ig.vertices == ("v", "e_0", "e_1")
    assert [(b.name, b.source, b.range) for b in ig.bundles] == [
        ("e_0", "e_0", "v"),
        ("e_1", "e_1", "v"),
    ]


def test_ideal_graph_longer_entries():
    # entries are whole paths whose last edge crosses: u -e> v -f> w with H={w}
    # saturates to everything, so go through a bifurcation to keep H small
    g = Graph(
        ("u", "v", "w", "t"),
        (Bundle("e", "u", "v"), Bundle("f", "v", "w"), Bundle("d", "v", "t")),
    )
    ig = ideal_graph(g, {"w"})
    assert ig.vertices == ("w", "f", "ef")
    assert [(b.name, b.source, b.range) for b in ig.bundles] == [
        ("f", "f", "w"),
        ("ef", "ef", "w"),
    ]


def test_ideal_graph_refuses_omega_crossing():
    with pytest.raises(NotFinitelyPresentableError) as err:
        ideal_graph(OMEGA1, {"w"})
    assert "omega" in str(err.value)


def test_ideal_graph_refuses_cycle_witness():
    g = Graph(("v", "w"), (Bundle("a", "v", "v"), Bundle("e", "v", "w")))
    with pytest.raises(NotFinitelyPresentableError) as err:
        ideal_graph(g, {"w"})
    assert "cycle" in str(err.value)


def test_ideal_graph_refuses_omega_feeding_crossing():
    # the crossing edge e is finite but infinitely many paths reach its source
    g = Graph(
        ("v", "u", "w", "t"),
        (
            Bundle("h", "v", "u", OMEGA),
            Bundle("e", "u", "w"),
            Bundle("d", "u", "t"),
        ),
    )
    with pytest.raises(NotFinitelyPresentableError) as err:
        ideal_graph(g, {"w"})
    assert "omega bundle feeds the crossing edge 'e'" in str(err.value)


# -- class-count additivity --------------------------------------------------------


def test_class_count_additivity_on_fixtures():
    for g in FIXTURES.values():
        total = enumerate_classes(g).count
        for p in enumerate_admissible_pairs(g):
            if p.s:
                continue
            try:
                ideal = ideal_graph(g, p.h)
            except NotFinitelyPresentableError:
                continue
            left = enumerate_classes(ideal).count
            right = enumerate_classes(quotient_graph(g, p)).count
            if total is None:
                assert left is None or right is None
            else:
                assert left + right == total
