"""Boundary paths, the shift map, and the class census."""

import time

import pytest

from leavitt import (
    FIXTURES,
    OMEGA,
    BoundaryPath,
    Bundle,
    Graph,
    boundary_path,
    class_of,
    enumerate_classes,
    finite_boundary_paths,
    has_cycle,
    render_boundary_path,
    shift,
    singular_vertices,
    st_equivalent,
)
from leavitt.errors import ContractError
from leavitt.graph import vertex_path

from sweeputil import random_graph

LINE3 = FIXTURES["LINE3"]
FORK = FIXTURES["FORK"]
LOOP1 = FIXTURES["LOOP1"]
ROSE2 = FIXTURES["ROSE2"]
OMEGA1 = FIXTURES["OMEGA"]
OMEGA2 = FIXTURES["OMEGA2"]

# one loop with an entry path: u -c> v, v -a> v
ENTRYLOOP = Graph(("u", "v"), (Bundle("c", "u", "v"), Bundle("a", "v", "v")))

# a loop and a separate sink branch: base of finite and infinite paths at once
MIXED = Graph(
    ("u", "w"),
    (Bundle("a", "u", "u"), Bundle("b", "u", "w")),
)


# -- construction and canonical form ----------------------------------------


def test_finite_paths_must_end_singular():
    assert boundary_path(LINE3, LINE3.vertex_path("w")).cycle is None
    with pytest.raises(ContractError):
        boundary_path(LINE3, LINE3.vertex_path("u"))
    # infinite emitters are fine endpoints
    assert boundary_path(OMEGA2, OMEGA2.vertex_path("v")).cycle is None


def test_cycle_validation():
    e = LOOP1.edge("e")
    with pytest.raises(ContractError):
        boundary_path(LOOP1, LOOP1.vertex_path("v"), ())
    with pytest.raises(ContractError):
        boundary_path(LINE3, LINE3.vertex_path("u"), (LINE3.edge("e"),))
    ok = boundary_path(LOOP1, LOOP1.vertex_path("v"), (e,))
    assert ok.cycle == (e,)


def test_cycle_must_start_where_the_prefix_ends():
    with pytest.raises(ContractError, match="^cycle must start where the prefix ends$"):
        boundary_path(ENTRYLOOP, ENTRYLOOP.vertex_path("u"), (ENTRYLOOP.edge("a"),))


def test_cycle_reduced_to_primitive_root():
    e = LOOP1.edge("e")
    doubled = boundary_path(LOOP1, LOOP1.vertex_path("v"), (e, e))
    assert doubled.cycle == (e,)


def test_prefix_absorbed_into_cycle():
    a = ENTRYLOOP.edge("a")
    c = ENTRYLOOP.edge("c")
    # c a (a)^oo denotes the same path as c (a)^oo
    long = boundary_path(ENTRYLOOP, ENTRYLOOP.path("c", "a"), (a,))
    short = boundary_path(ENTRYLOOP, ENTRYLOOP.path("c"), (a,))
    assert long == short
    assert long.prefix.edges == (c,)
    purely = boundary_path(ENTRYLOOP, ENTRYLOOP.path("a", "a"), (a,))
    assert purely == boundary_path(ENTRYLOOP, vertex_path("v"), (a,))


def test_two_cycle_absorption_rotates():
    g = Graph(("u", "v"), (Bundle("x", "u", "v"), Bundle("y", "v", "u")))
    x, y = g.edge("x"), g.edge("y")
    # x y x (y x)^oo is the purely periodic path (x y)^oo based at u
    b = boundary_path(g, g.path("x", "y", "x"), (y, x))
    assert b == boundary_path(g, vertex_path("u"), (x, y))
    assert b.prefix.length == 0 and b.cycle == (x, y)


def test_long_prefix_absorbed_in_linear_time():
    # absorbing one edge at a time rebuilt the rotated cycle at every step:
    # 2.4 s at n = 16,000 on a 2-core VM
    n = 16000
    vs = tuple(f"v{i}" for i in range(n))
    g = Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)))
    cycle = tuple(g.edge(f"e{i}") for i in range(n))
    prefix = g.path(*cycle[5:])
    start = time.perf_counter()
    b = boundary_path(g, prefix, cycle)
    assert time.perf_counter() - start < 1.0
    assert b == BoundaryPath(vertex_path("v5"), cycle[5:] + cycle[:5])
    # a prefix longer than the cycle wraps around it
    wrapped = boundary_path(g, g.path(*cycle[3:], *cycle), cycle)
    assert wrapped == BoundaryPath(vertex_path("v3"), cycle[3:] + cycle[:3])


# -- shift ---------------------------------------------------------------------


def test_shift_fixes_vertex_paths():
    b = boundary_path(LINE3, LINE3.vertex_path("w"))
    assert shift(LINE3, b) == b


def test_shift_drops_first_edge():
    b = boundary_path(LINE3, LINE3.path("e", "f"))
    assert shift(LINE3, b) == boundary_path(LINE3, LINE3.path("f"))
    assert shift(LINE3, shift(LINE3, b)) == boundary_path(LINE3, LINE3.vertex_path("w"))


def test_shift_rotates_pure_cycles():
    b = boundary_path(LOOP1, LOOP1.vertex_path("v"), (LOOP1.edge("e"),))
    assert shift(LOOP1, b) == b
    g = Graph(("u", "v"), (Bundle("x", "u", "v"), Bundle("y", "v", "u")))
    x, y = g.edge("x"), g.edge("y")
    b = boundary_path(g, vertex_path("u"), (x, y))
    assert shift(g, b) == boundary_path(g, vertex_path("v"), (y, x))
    assert shift(g, shift(g, b)) == b


def test_shift_preserves_canonical_form():
    samples = [
        (ENTRYLOOP, boundary_path(ENTRYLOOP, ENTRYLOOP.path("c"), (ENTRYLOOP.edge("a"),))),
        (MIXED, boundary_path(MIXED, MIXED.path("a", "a", "b"))),
        (MIXED, boundary_path(MIXED, vertex_path("u"), (MIXED.edge("a"),))),
    ]
    for g, b in samples:
        cur = b
        for _ in range(6):
            cur = shift(g, cur)
            again = boundary_path(g, cur.prefix, cur.cycle)
            assert again == cur


# -- shift-tail equivalence ------------------------------------------------------


def test_st_equivalent_finite():
    v = boundary_path(FORK, FORK.vertex_path("v"))
    e = boundary_path(FORK, FORK.path("e"))
    w = boundary_path(FORK, FORK.vertex_path("w"))
    assert st_equivalent(FORK, v, e)
    assert not st_equivalent(FORK, v, w)


def test_st_equivalent_cycles():
    e = boundary_path(ROSE2, ROSE2.vertex_path("v"), (ROSE2.edge("e"),))
    f = boundary_path(ROSE2, ROSE2.vertex_path("v"), (ROSE2.edge("f"),))
    assert not st_equivalent(ROSE2, e, f)
    ef = boundary_path(ROSE2, ROSE2.vertex_path("v"), (ROSE2.edge("e"), ROSE2.edge("f")))
    fe = boundary_path(ROSE2, ROSE2.path("e"), (ROSE2.edge("f"), ROSE2.edge("e")))
    assert st_equivalent(ROSE2, ef, fe)


def test_st_equivalent_in_linear_time_when_the_first_edge_recurs():
    # building one rotation per recurrence of b's first edge took 1.8 s
    # at k = 20,000 on a 2-core VM
    k = 20000
    g = Graph(("v", "w"), (Bundle("e", "v", "v"), Bundle("f", "v", "w"), Bundle("g", "w", "v")))
    e, f, h = g.edge("e"), g.edge("f"), g.edge("g")
    a = boundary_path(g, vertex_path("v"), (e,) * k + (f, h))
    half = boundary_path(g, vertex_path("v"), (e,) * (k // 2) + (f, h) + (e,) * (k // 2))
    other = boundary_path(g, vertex_path("v"), (e,) * (k - 1) + (f, h, e))
    twice = boundary_path(g, vertex_path("v"), (e,) * (k - 2) + (f, h, f, h))
    start = time.perf_counter()
    assert st_equivalent(g, a, half)
    assert st_equivalent(g, half, other)
    assert not st_equivalent(g, a, twice)
    assert time.perf_counter() - start < 1.0


def test_st_equivalent_never_mixes_finite_and_infinite():
    fin = boundary_path(MIXED, MIXED.path("b"))
    inf = boundary_path(MIXED, vertex_path("u"), (MIXED.edge("a"),))
    assert not st_equivalent(MIXED, fin, inf)
    assert not st_equivalent(MIXED, inf, fin)


def _sample_paths(g, max_len=4):
    """Finite boundary paths plus eventually periodic ones, lengths <= max_len."""
    out = []
    stack = [g.vertex_path(v) for v in g.vertices]
    all_paths = []
    while stack:
        p = stack.pop()
        all_paths.append(p)
        if p.length >= max_len:
            continue
        end = g.path_range(p)
        for b in g.out_bundles(end):
            if b.multiplicity is OMEGA:
                continue
            for i in range(b.multiplicity):
                stack.append(
                    g.path(*(p.edges + (g.edge(b.name, i),)))
                    if p.length
                    else g.path((b.name, i))
                )
    for p in all_paths:
        try:
            out.append(boundary_path(g, p))
        except ContractError:
            pass
        end = g.path_range(p)
        for cyc_len in (1, 2):
            for q in all_paths:
                if q.length != cyc_len or g.path_source(q) != end:
                    continue
                if g.path_range(q) != end:
                    continue
                out.append(boundary_path(g, p, q.edges))
    seen = []
    for b in out:
        if b not in seen:
            seen.append(b)
    return seen


def test_st_equivalence_is_an_equivalence_relation():
    for g in (FORK, LINE3, ROSE2, ENTRYLOOP, MIXED, OMEGA2):
        paths = _sample_paths(g)
        for a in paths:
            assert st_equivalent(g, a, a)
            for b in paths:
                assert st_equivalent(g, a, b) == st_equivalent(g, b, a)
        for a in paths:
            for b in paths:
                if not st_equivalent(g, a, b):
                    continue
                for c in paths:
                    if st_equivalent(g, b, c):
                        assert st_equivalent(g, a, c)


def test_st_equivalent_matches_iterated_shifting():
    for g in (FORK, LINE3, ENTRYLOOP, MIXED, ROSE2):
        paths = _sample_paths(g, max_len=3)
        for a in paths:
            for b in paths:
                bound = a.prefix.length + b.prefix.length + 4
                orbit_a = [a]
                orbit_b = [b]
                for _ in range(bound):
                    orbit_a.append(shift(g, orbit_a[-1]))
                    orbit_b.append(shift(g, orbit_b[-1]))
                meets = bool(set(orbit_a) & set(orbit_b))
                assert meets == st_equivalent(g, a, b), (a, b)


# -- census -----------------------------------------------------------------------


def test_census_fixtures():
    c = enumerate_classes(LOOP1)
    assert not c.uncountable and c.count == 1
    assert c.classes[0].representative.cycle is not None
    assert c.classes[0].size == 1

    assert enumerate_classes(ROSE2).uncountable
    assert enumerate_classes(ROSE2).count is None

    c = enumerate_classes(FORK)
    assert c.count == 2
    assert [t.size for t in c.classes] == [2, 2]

    c = enumerate_classes(LINE3)
    assert c.count == 1
    assert c.classes[0].size == 3

    c = enumerate_classes(OMEGA1)
    assert c.count == 2
    assert [t.size for t in c.classes] == [1, None]

    c = enumerate_classes(OMEGA2)
    assert c.count == 3
    assert [t.size for t in c.classes] == [1, 2, None]


def test_census_entry_loop_counts_prefixes():
    c = enumerate_classes(ENTRYLOOP)
    assert c.count == 1
    assert c.classes[0].size == 2  # (a)^oo and c(a)^oo


def test_census_mixed_graph():
    c = enumerate_classes(MIXED)
    # sink class is infinite (the loop feeds it); cycle class has one member
    assert c.count == 2
    assert [t.size for t in c.classes] == [None, 1]


def test_acyclic_census_one_class_per_singular_vertex(rng):
    for _ in range(300):
        g = random_graph(rng)
        c = enumerate_classes(g)
        if c.uncountable:
            continue
        if not has_cycle(g):
            assert c.count == len(singular_vertices(g))


def test_class_of_routes_paths_to_their_class():
    census = enumerate_classes(FORK)
    e = boundary_path(FORK, FORK.path("e"))
    w = boundary_path(FORK, FORK.vertex_path("w"))
    assert class_of(FORK, census, e) == 0
    assert class_of(FORK, census, w) == 1


def test_class_of_refuses_a_path_outside_the_census():
    # an uncountable census lists no classes
    census = enumerate_classes(ROSE2)
    b = boundary_path(ROSE2, ROSE2.path("e"), (ROSE2.edge("f"),))
    with pytest.raises(ContractError, match="^boundary path belongs to no census class$"):
        class_of(ROSE2, census, b)


def test_class_of_on_a_long_cycle_in_linear_time():
    # building the set of every rotation took 2.7 s and 90 MB here on a
    # 2-core VM
    n = 3000
    vs = tuple(f"v{i}" for i in range(n))
    g = Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)))
    census = enumerate_classes(g)
    cycle = census.classes[0].representative.cycle
    b = boundary_path(g, g.path("e5", "e6"), cycle[7:] + cycle[:7])
    start = time.perf_counter()
    assert class_of(g, census, b) == 0
    assert time.perf_counter() - start < 1.0


def test_finite_boundary_paths():
    paths = finite_boundary_paths(FORK)
    assert len(paths) == 4
    assert len(finite_boundary_paths(LINE3)) == 3
    rendered = [render_boundary_path(FORK, b) for b in paths]
    assert rendered == ["v", "w", "e", "f"]


def test_render_boundary_path():
    assert render_boundary_path(LINE3, boundary_path(LINE3, LINE3.path("e", "f"))) == "ef"
    b = boundary_path(ENTRYLOOP, ENTRYLOOP.path("c"), (ENTRYLOOP.edge("a"),))
    assert render_boundary_path(ENTRYLOOP, b) == "c(a)^oo"
    pure = boundary_path(LOOP1, LOOP1.vertex_path("v"), (LOOP1.edge("e"),))
    assert render_boundary_path(LOOP1, pure) == "(e)^oo"
