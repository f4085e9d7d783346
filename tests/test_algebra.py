"""Exact arithmetic in the rational Leavitt path algebra."""

import time
from fractions import Fraction

import pytest

from leavitt import (
    FIXTURES,
    ZERO,
    Bundle,
    EdgeRef,
    Graph,
    Monomial,
    add,
    degree_components,
    dimension,
    edge_element,
    edge_star_element,
    element,
    equals,
    gap_projection,
    monomial,
    multiply,
    normal_form,
    one,
    parse_element,
    parse_path,
    paths_into,
    render_element,
    scale,
    star,
    subtract,
    vertex_projection,
)
from leavitt.errors import ContractError, UnsupportedGraphError
from leavitt.graph import Path, vertex_path

LINE3 = FIXTURES["LINE3"]
ENTRY4 = FIXTURES["ENTRY4"]
FORK = FIXTURES["FORK"]
LOOP1 = FIXTURES["LOOP1"]
PT = FIXTURES["PT"]
OMEGA1 = FIXTURES["OMEGA"]
OMEGA2 = FIXTURES["OMEGA2"]

ACYCLIC = (PT, LINE3, ENTRY4, FORK)


def s(g, name, index=0):
    return edge_element(g, EdgeRef(name, index))


def s_star(g, name, index=0):
    return edge_star_element(g, EdgeRef(name, index))


def random_element(g, rng, width=3):
    """A small rational combination of monomials over an acyclic graph."""
    monos = []
    for v in g.vertices:
        entries = paths_into(g, v)
        for alpha in entries:
            for beta in entries:
                monos.append(Monomial(alpha, beta))
    picks = [monos[rng.randrange(len(monos))] for _ in range(width)]
    return element(
        [(m, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for m in picks]
    )


# -- construction and text form -------------------------------------------


def test_element_normalizes():
    p = LINE3.vertex_path("u")
    m = Monomial(p, p)
    x = element([(m, 2), (m, -2)])
    assert x.is_zero() and x == ZERO
    y = element([(m, Fraction(1, 2)), (m, Fraction(1, 3))])
    assert y.coefficient(m) == Fraction(5, 6)
    q = LINE3.vertex_path("v")
    assert y.coefficient(Monomial(q, q)) == 0


def test_monomial_requires_common_range():
    with pytest.raises(ContractError):
        monomial(LINE3, LINE3.vertex_path("u"), LINE3.vertex_path("v"))


def test_render_parse_round_trip():
    for text in ("0", "p_v", "-p_u + 2*f.f*", "-p_u + 3/2*ef.w*"):
        x = parse_element(LINE3, text)
        assert render_element(LINE3, x) == text
        assert parse_element(LINE3, render_element(LINE3, x)) == x


def test_render_orders_terms():
    x = parse_element(LINE3, "3/2*ef.w* - p_u")
    assert render_element(LINE3, x) == "-p_u + 3/2*ef.w*"


def test_parse_accepts_a_leading_plus():
    p = LINE3.vertex_path("u")
    assert parse_element(LINE3, "+p_u") == element([(Monomial(p, p), 1)])


def test_parse_rejects_garbage():
    with pytest.raises(ContractError, match="^cannot parse element ''$"):
        parse_element(LINE3, "")
    with pytest.raises(ContractError):
        parse_element(LINE3, "p_u +")
    with pytest.raises(ContractError):
        parse_element(LINE3, "q_u")
    with pytest.raises(ContractError):
        parse_path(LINE3, "fe")  # does not compose


def test_parse_reads_ascii_integers_and_refuses_a_zero_denominator():
    # "3/0*" raised ZeroDivisionError, and \d read Arabic-Indic digits as 3 and 1
    with pytest.raises(ContractError) as err:
        parse_element(LINE3, "3/0*p_u")
    assert str(err.value) == "coefficient '3/0' has a zero denominator"
    assert parse_element(LINE3, "3/1*p_u") == parse_element(LINE3, "3*p_u")
    with pytest.raises(ContractError, match="^cannot parse monomial '\u0663\\*p_u'$"):
        parse_element(LINE3, "\u0663*p_u")
    with pytest.raises(ContractError, match="^cannot parse monomial "):
        parse_element(LINE3, "3/\u0661*p_u")
    g = Graph(("u", "v"), (Bundle("e", "u", "v", 2),))
    with pytest.raises(ContractError, match="^cannot parse path "):
        parse_path(g, "e#\u0661")
    assert parse_path(g, "e#1") == Path(edges=(EdgeRef("e", 1),))


def test_parse_path_multiplicity_needs_index():
    g = Graph(("u", "v"), (Bundle("e", "u", "v", 2),))
    assert parse_path(g, "e#1") == Path(edges=(EdgeRef("e", 1),))
    with pytest.raises(ContractError):
        parse_path(g, "e")  # bare name is reserved for multiplicity 1


def test_parse_path_rejects_ambiguity():
    g = Graph(
        ("u", "v", "w"),
        (Bundle("e", "u", "v"), Bundle("f", "v", "w"), Bundle("ef", "u", "w")),
    )
    with pytest.raises(ContractError) as err:
        parse_path(g, "ef")
    assert "2 readings" in str(err.value)
    assert parse_path(g, "e") == Path(edges=(EdgeRef("e", 0),))


def test_ambiguous_path_counts_readings_without_listing_them():
    # listing every segmentation of a^28 before checking each took 10.8 s
    # and 283 MB on a 2-core VM; a^40 has Fibonacci(41) readings
    g = Graph(("x",), (Bundle("a", "x", "x"), Bundle("aa", "x", "x")))
    start = time.perf_counter()
    with pytest.raises(ContractError) as err:
        parse_path(g, "a" * 40)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"ambiguous path {'a' * 40!r}: 165580141 readings"


def test_parse_path_reads_the_one_valid_reading_among_many():
    # a loop a and two edges aa into a sink: a^26 splits into a and aa in
    # Fibonacci(27) ways, but only a^26 composes before aa#1
    g = Graph(("x", "t"), (Bundle("a", "x", "x"), Bundle("aa", "x", "t", 2)))
    p = parse_path(g, "a" * 26 + "aa#1")
    assert p == Path(edges=(EdgeRef("a", 0),) * 26 + (EdgeRef("aa", 1),))


def test_long_path_parses_without_recursion_limit():
    n = 1200
    g = Graph(
        tuple(f"v{i}" for i in range(n)),
        tuple(Bundle(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)),
    )
    text = "".join(f"e{i}" for i in range(n - 1))
    p = parse_path(g, text)
    assert p == Path(edges=tuple(EdgeRef(f"e{i}", 0) for i in range(n - 1)))
    sink = vertex_path(f"v{n - 1}")
    x = element([(Monomial(p, sink), Fraction(3, 2)), (Monomial(sink, sink), -1)])
    assert render_element(g, x) == f"-p_v{n - 1} + 3/2*{text}.v{n - 1}*"
    assert parse_element(g, render_element(g, x)) == x


# -- multiplication --------------------------------------------------------


def test_edge_star_rules():
    e, f = s(LINE3, "e"), s(LINE3, "f")
    assert multiply(LINE3, s_star(LINE3, "e"), e) == vertex_projection(LINE3, "v")
    assert multiply(LINE3, s_star(LINE3, "e"), f) == ZERO
    assert multiply(LINE3, e, f) == parse_element(LINE3, "ef.w*")


def test_distinct_parallel_edges_are_orthogonal():
    g = Graph(("u", "v"), (Bundle("e", "u", "v", 2),))
    x = multiply(g, edge_star_element(g, EdgeRef("e", 0)), edge_element(g, EdgeRef("e", 1)))
    assert x == ZERO


def test_vertex_projections_are_orthogonal_idempotents():
    for g in ACYCLIC:
        for v in g.vertices:
            pv = vertex_projection(g, v)
            assert multiply(g, pv, pv) == pv
            for w in g.vertices:
                if w != v:
                    assert multiply(g, pv, vertex_projection(g, w)) == ZERO


def test_ck_relation_at_regular_vertex():
    lhs = vertex_projection(FORK, "u")
    rhs = add(
        multiply(FORK, s(FORK, "e"), s_star(FORK, "e")),
        multiply(FORK, s(FORK, "f"), s_star(FORK, "f")),
    )
    assert lhs != rhs  # raw elements differ
    assert equals(FORK, lhs, rhs)  # but they agree in the algebra


def test_one_is_the_unit(rng):
    for g in ACYCLIC:
        unit = one(g)
        assert multiply(g, unit, unit) == unit
        for _ in range(10):
            x = random_element(g, rng)
            assert multiply(g, unit, x) == x
            assert multiply(g, x, unit) == x


def test_multiply_associative(rng):
    for g in ACYCLIC:
        for _ in range(15):
            x, y, z = (random_element(g, rng) for _ in range(3))
            assert multiply(g, multiply(g, x, y), z) == multiply(g, x, multiply(g, y, z))


def test_multiply_associative_with_cycles():
    e = s(LOOP1, "e")
    ee = multiply(LOOP1, e, e)
    pv = vertex_projection(LOOP1, "v")
    samples = [e, ee, star(e), pv, subtract(pv, multiply(LOOP1, e, star(e)))]
    for x in samples:
        for y in samples:
            for z in samples:
                assert multiply(LOOP1, multiply(LOOP1, x, y), z) == multiply(
                    LOOP1, x, multiply(LOOP1, y, z)
                )


def test_star_involution_and_antimultiplicativity(rng):
    for g in ACYCLIC:
        for _ in range(15):
            x, y = random_element(g, rng), random_element(g, rng)
            assert star(star(x)) == x
            assert star(multiply(g, x, y)) == multiply(g, star(y), star(x))
            assert star(add(x, y)) == add(star(x), star(y))


def test_linearity(rng):
    g = FORK
    for _ in range(10):
        x, y, z = (random_element(g, rng) for _ in range(3))
        assert multiply(g, add(x, y), z) == add(multiply(g, x, z), multiply(g, y, z))
        assert multiply(g, scale(Fraction(2, 3), x), y) == scale(
            Fraction(2, 3), multiply(g, x, y)
        )
        assert subtract(x, x) == ZERO


# -- grading ----------------------------------------------------------------


def test_degree_components_split_and_sum(rng):
    x = add(s(LINE3, "e"), add(vertex_projection(LINE3, "u"), s_star(LINE3, "f")))
    comps = degree_components(x)
    assert sorted(comps) == [-1, 0, 1]
    assert comps[1] == s(LINE3, "e")
    for g in ACYCLIC:
        for _ in range(10):
            y = random_element(g, rng)
            total = ZERO
            for d, part in degree_components(y).items():
                assert all(m.alpha.length - m.beta.length == d for m, _ in part.terms)
                total = add(total, part)
            assert total == y


def test_grading_is_multiplicative(rng):
    for g in ACYCLIC:
        for _ in range(20):
            x = random_element(g, rng)
            y = random_element(g, rng)
            for d1, p1 in degree_components(x).items():
                for d2, p2 in degree_components(y).items():
                    prod = multiply(g, p1, p2)
                    degrees = set(degree_components(prod))
                    assert degrees <= {d1 + d2}


# -- gap projections ---------------------------------------------------------


def test_gap_projection_omega2():
    gp = gap_projection(OMEGA2, {"w"}, "v")
    assert render_element(OMEGA2, gp) == "p_v - g.g*"
    assert multiply(OMEGA2, gp, gp) == gp
    assert star(gp) == gp


def test_gap_projection_requires_breaking_vertex():
    with pytest.raises(ContractError):
        gap_projection(OMEGA2, {"w"}, "u")
    with pytest.raises(ContractError):
        gap_projection(FORK, {"v"}, "u")


# -- normal form and dimension ----------------------------------------------


def test_normal_form_line3():
    nf = normal_form(LINE3, vertex_projection(LINE3, "u"))
    assert render_element(LINE3, nf) == "ef.ef*"
    assert normal_form(LINE3, nf) == nf


def test_normal_form_is_linear(rng):
    for g in ACYCLIC:
        for _ in range(10):
            x, y = random_element(g, rng), random_element(g, rng)
            assert normal_form(g, add(x, y)) == add(normal_form(g, x), normal_form(g, y))
            assert normal_form(g, normal_form(g, x)) == normal_form(g, x)


def test_normal_form_refuses_unsupported():
    with pytest.raises(UnsupportedGraphError) as err:
        normal_form(LOOP1, vertex_projection(LOOP1, "v"))
    assert "acyclic" in str(err.value)
    with pytest.raises(UnsupportedGraphError) as err:
        normal_form(OMEGA1, vertex_projection(OMEGA1, "v"))
    assert "finite multiplicities" in str(err.value)


def test_equals_detects_rewrites():
    # p_w stays itself, p_v rewrites through f, both sides meet at the sink
    lhs = vertex_projection(LINE3, "v")
    rhs = multiply(LINE3, s(LINE3, "f"), s_star(LINE3, "f"))
    assert equals(LINE3, lhs, rhs)
    assert not equals(LINE3, lhs, vertex_projection(LINE3, "w"))


def test_dimension_values():
    assert dimension(PT) == 1
    assert dimension(LINE3) == 9
    assert dimension(FORK) == 8
    assert dimension(ENTRY4) == 16


def test_dimension_refuses_cycles():
    with pytest.raises(UnsupportedGraphError):
        dimension(LOOP1)


def test_sink_basis_monomials_are_fixed_points():
    # every monomial with sink range is already in normal form
    for g in ACYCLIC:
        for v in g.vertices:
            if g.out_bundles(v):
                continue
            for alpha in paths_into(g, v):
                for beta in paths_into(g, v):
                    x = element([(Monomial(alpha, beta), 1)])
                    assert normal_form(g, x) == x


def test_vertex_path_monomial_renders_as_projection():
    x = element([(Monomial(vertex_path("w"), vertex_path("w")), Fraction(1))])
    assert render_element(LINE3, x) == "p_w"
