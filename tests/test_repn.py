"""Boundary-path representations, blocks, and matrix units."""

import time
from fractions import Fraction

import pytest

import leavitt.graph
import leavitt.repn
from leavitt import (
    FIXTURES,
    ZERO,
    AlgebraElement,
    Bundle,
    EdgeRef,
    Graph,
    Monomial,
    add,
    build_rho,
    decompose_blocks,
    blocks_invariant,
    dimension,
    edge_element,
    element,
    edge_star_element,
    equals,
    evaluate,
    has_cycle,
    hom_space_dim,
    is_omega,
    lambda_index_set,
    lambda_size,
    matrix_units,
    monomial,
    multiply,
    naimark_isomorphism,
    normal_form,
    one,
    parse_element,
    star,
    verify_irreducible_block,
    verify_relations,
    vertex_projection,
)
from leavitt.errors import (
    ContractError,
    InternalInvariantError,
    NotFinitelyPresentableError,
    UnknownNameError,
    UnsupportedGraphError,
)
from leavitt.graph import Path, path_key, paths_into, render_path, vertex_path
from leavitt.naimark import check_condition5
from leavitt.repn import _verify_units, monomial_of

from sweeputil import random_graph
from test_algebra import random_element

LINE3 = FIXTURES["LINE3"]
ENTRY4 = FIXTURES["ENTRY4"]
FORK = FIXTURES["FORK"]
LOOP1 = FIXTURES["LOOP1"]
PT = FIXTURES["PT"]
OMEGA1 = FIXTURES["OMEGA"]

ACYCLIC = (PT, LINE3, ENTRY4, FORK)


def live_map(R, label):
    """The partial map R holds for the generator ``label``, to be changed in place."""
    return R._maps[R._keys[label]]


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def zeros(n):
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


# -- construction ------------------------------------------------------------


def test_basis_line3():
    R = build_rho(LINE3)
    assert R.dimension == 3
    rendered = [LINE3.path_source(p) if p.length == 0 else p for p in R.basis]
    assert R.basis[0] == vertex_path("w")
    assert R.basis[1] == Path(edges=(EdgeRef("f", 0),))
    assert R.basis[2] == Path(edges=(EdgeRef("e", 0), EdgeRef("f", 0)))
    assert rendered[0] == "w"


def test_texts_are_listed_on_first_read():
    # only the rep command prints the basis; building and checking R lists no text
    for g in FIXTURES.values():
        if has_cycle(g) or any(is_omega(b.multiplicity) for b in g.bundles):
            continue
        R = build_rho(g)
        verify_relations(R)
        assert "texts" not in vars(R)
        assert R.texts == tuple(render_path(g, p) for p in R.basis)


def test_building_and_checking_render_no_label(monkeypatch):
    # labels are rendered only where they are read: generator_labels,
    # generator_map, matrix, block_labels and the messages of failures
    def refuse(g, ref):
        raise AssertionError(f"rendered {ref}")

    def moves(m):
        """(argument, image) of each entry 1 of a 0/1 matrix."""
        return {(j, i) for i, row in enumerate(m) for j, c in enumerate(row) if c}

    monkeypatch.setattr(leavitt.graph, "render_edge_ref", refuse)
    monkeypatch.setattr(leavitt.repn, "render_edge_ref", refuse)
    built = []
    for g in FIXTURES.values():
        if has_cycle(g) or any(is_omega(b.multiplicity) for b in g.bundles):
            continue
        R = build_rho(g)
        verify_relations(R)
        assert all(verify_irreducible_block(R, c)[0] for c in range(len(R.classes)))
        assert hom_space_dim(R, 0, 0) == 1
        for v in g.vertices:
            assert moves(evaluate(R, vertex_projection(g, v))) == R.vertex_map(v).items()
        for ref in g.edge_refs():
            assert moves(evaluate(R, edge_element(g, ref))) == R.edge_map(ref).items()
            assert moves(evaluate(R, edge_star_element(g, ref))) == R.edge_star_map(ref).items()
        assert "block_labels" not in vars(R)
        built.append(R)
    monkeypatch.undo()
    for R in built:
        assert R.block_labels and "block_labels" in vars(R)


def test_generator_maps_line3():
    R = build_rho(LINE3)
    assert R.edge_map(EdgeRef("e", 0)) == {1: 2}  # f goes to ef, w dies
    assert R.edge_star_map(EdgeRef("e", 0)) == {2: 1}
    assert R.vertex_map("u") == {2: 2}
    assert R.vertex_map("w") == {0: 0}


@pytest.mark.parametrize("read", ["edge_map", "edge_star_map"])
@pytest.mark.parametrize(
    "ref, error, message",
    [
        (EdgeRef("e", 5), ContractError, "edge index 5 out of range for bundle 'e' of multiplicity 1"),
        (EdgeRef("e", -1), ContractError, "edge index must be nonnegative: EdgeRef(bundle='e', index=-1)"),
        (EdgeRef("x", 0), UnknownNameError, "unknown bundle 'x'"),
    ],
    ids=["index_past_multiplicity", "negative_index", "unknown_bundle"],
)
def test_edge_maps_refuse_what_graph_edge_refuses(read, ref, error, message):
    R = build_rho(LINE3)
    with pytest.raises(error) as err:
        getattr(R, read)(ref)
    assert str(err.value) == message
    with pytest.raises(error) as err:
        LINE3.edge(*ref)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda R: R.vertex_map("zz"), UnknownNameError, "unknown vertex 'zz'"),
        (lambda R: R.generator_map("s_zz"), UnknownNameError, "unknown generator 's_zz'"),
        (lambda R: R.matrix("q"), UnknownNameError, "unknown generator 'q'"),
        (lambda R: verify_irreducible_block(R, 5), ContractError, "block index 5 is outside 0..1"),
        (lambda R: verify_irreducible_block(R, -1), ContractError, "block index -1 is outside 0..1"),
        (lambda R: hom_space_dim(R, 0, 7), ContractError, "block index 7 is outside 0..1"),
        (lambda R: hom_space_dim(R, -1, -1), ContractError, "block index -1 is outside 0..1"),
        (lambda R: verify_irreducible_block(R, True), ContractError, "block index True is outside 0..1"),
        (lambda R: hom_space_dim(R, True, 0), ContractError, "block index True is outside 0..1"),
        (lambda R: hom_space_dim(R, 0, False), ContractError, "block index False is outside 0..1"),
    ],
    ids=[
        "unknown_vertex", "unknown_generator", "unknown_matrix",
        "block_past_end", "negative_block", "hom_block_past_end", "hom_negative_blocks",
        "boolean_block", "hom_boolean_first_block", "hom_boolean_second_block",
    ],
)
def test_accessors_refuse_unknown_names_and_blocks(call, error, message):
    R = build_rho(FORK)  # two blocks, at the sinks v and w
    with pytest.raises(error) as err:
        call(R)
    assert str(err.value) == message


def test_matrices_are_partial_permutations():
    for g in ACYCLIC:
        R = build_rho(g)
        for label in R.generator_labels():
            m = R.matrix(label)
            for row in m:
                assert all(c in (0, 1) for c in row)
                assert sum(row) <= 1
            for j in range(len(m)):
                assert sum(m[i][j] for i in range(len(m))) <= 1


def test_refuses_cycles_and_omega():
    with pytest.raises(UnsupportedGraphError) as err:
        build_rho(LOOP1)
    assert "acyclic" in str(err.value)
    with pytest.raises(UnsupportedGraphError) as err:
        build_rho(OMEGA1)
    assert "finite multiplicities" in str(err.value)


# -- relations ----------------------------------------------------------------


def test_relations_on_fixtures():
    for g in ACYCLIC:
        verify_relations(build_rho(g))


def test_relations_on_random_graphs(rng):
    checked = 0
    while checked < 60:
        g = random_graph(rng)
        if has_cycle(g) or any(is_omega(b.multiplicity) for b in g.bundles):
            continue
        verify_relations(build_rho(g))
        checked += 1


@pytest.mark.parametrize(
    "g, maps, vertex",
    [
        # basis w, e: every E and CK relation holds, but p_u p_w != 0
        (
            Graph(("u", "w"), (Bundle("e", "u", "w"),)),
            {"p_u": {0: 0, 1: 1}, "p_w": {0: 0, 1: 1}, "s_e": {0: 1, 1: 0}, "s_e*": {0: 1, 1: 0}},
            "w",
        ),
        # no edge, so no relation but (V) reads p_a
        (Graph(("a", "b"), ()), {"p_a": {0: 0, 1: 0}}, "a"),
    ],
    ids=["overlapping_projections", "projection_not_identity"],
)
def test_relation_checks_refuse_projections_that_are_not_orthogonal(g, maps, vertex):
    R = build_rho(g)
    verify_relations(R)
    for label, m in maps.items():
        live_map(R, label).clear()
        live_map(R, label).update(m)
    with pytest.raises(InternalInvariantError, match=f"^relation p_v p_w = delta p_v fails at '{vertex}'$"):
        verify_relations(R)


def star_graph(k):
    """A root r with one edge to each of k leaves: k blocks, each reached by p_r."""
    leaves = tuple(f"t{i}" for i in range(k))
    return Graph(("r",) + leaves, tuple(Bundle(f"e{i}", "r", t) for i, t in enumerate(leaves)))


def test_relations_on_a_wide_star_are_linear():
    # composing p_r(e) with s_e per edge read all of p_r, 16,000 entries,
    # for each of the 8,000 edges: 1.97 s in process
    R = build_rho(star_graph(8000))
    start = time.perf_counter()
    verify_relations(R)
    assert time.perf_counter() - start < 1.0


# -- evaluation ---------------------------------------------------------------


def test_evaluate_unit_and_zero():
    for g in ACYCLIC:
        R = build_rho(g)
        assert evaluate(R, one(g)) == identity(R.dimension)
        assert evaluate(R, ZERO) == zeros(R.dimension)


def test_evaluate_matches_generator_matrices():
    R = build_rho(LINE3)
    e = EdgeRef("e", 0)
    assert evaluate(R, edge_element(LINE3, e)) == R.matrix("s_e")
    assert evaluate(R, edge_star_element(LINE3, e)) == R.matrix("s_e*")
    assert evaluate(R, vertex_projection(LINE3, "u")) == R.matrix("p_u")


def test_evaluate_is_a_homomorphism(rng):
    for g in ACYCLIC:
        R = build_rho(g)
        for _ in range(12):
            x, y = random_element(g, rng), random_element(g, rng)
            assert evaluate(R, multiply(g, x, y)) == matmul(
                evaluate(R, x), evaluate(R, y)
            )
            assert evaluate(R, add(x, y)) == matadd(evaluate(R, x), evaluate(R, y))


def test_evaluate_respects_normal_form(rng):
    for g in ACYCLIC:
        R = build_rho(g)
        for _ in range(12):
            x = random_element(g, rng)
            assert evaluate(R, x) == evaluate(R, normal_form(g, x))


def test_evaluate_separates_normal_forms(rng):
    # the representation is faithful on the sink basis
    g = FORK
    R = build_rho(g)
    for _ in range(20):
        x, y = random_element(g, rng), random_element(g, rng)
        if evaluate(R, x) == evaluate(R, y):
            assert normal_form(g, x) == normal_form(g, y)


def test_malformed_monomials_are_refused():
    R = build_rho(LINE3)
    # alpha = e ends at v, beta = w at w
    skew = AlgebraElement(((Monomial(LINE3.path("e"), LINE3.vertex_path("w")), Fraction(1)),))
    # f then e does not compose
    broken = Path(edges=(EdgeRef("f"), EdgeRef("e")))
    unjoined = AlgebraElement(((Monomial(broken, broken), Fraction(1)),))
    for x, message in ((skew, "^monomial paths must share their range vertex$"), (unjoined, "do not compose")):
        with pytest.raises(ContractError, match=message):
            evaluate(R, x)
        with pytest.raises(ContractError, match=message):
            normal_form(LINE3, x)


# -- blocks ------------------------------------------------------------------


def test_blocks_fixtures():
    assert [n for _, n in decompose_blocks(build_rho(PT))] == [1]
    assert [n for _, n in decompose_blocks(build_rho(LINE3))] == [3]
    blocks = decompose_blocks(build_rho(FORK))
    assert [n for _, n in blocks] == [2, 2]
    assert blocks[0][0] == (vertex_path("v"), Path(edges=(EdgeRef("e", 0),)))
    assert blocks[1][0] == (vertex_path("w"), Path(edges=(EdgeRef("f", 0),)))


def test_blocks_are_invariant():
    for g in ACYCLIC:
        assert blocks_invariant(build_rho(g))


def test_irreducible_blocks():
    for g in ACYCLIC:
        R = build_rho(g)
        for b in range(len(R.classes)):
            ok, certificate = verify_irreducible_block(R, b)
            assert ok
            block_paths = tuple(
                sorted((R.basis[i] for i in R.classes[b]), key=path_key)
            )
            for start, orbit in certificate.items():
                assert orbit == block_paths
                assert start in block_paths


def test_orbits_do_not_leave_blocks():
    R = build_rho(FORK)
    _, certificate = verify_irreducible_block(R, 0)
    other = {R.basis[i] for i in R.classes[1]}
    for orbit in certificate.values():
        assert not (set(orbit) & other)


def _hom_dim_by_elimination(R, a, b):
    """Null-space dimension of the intertwiner equations, solved densely."""
    A, B = R.classes[a], R.classes[b]
    na, nb = len(A), len(B)
    rows = []
    for label in R.generator_labels():
        full = R.matrix(label)
        ma = [[full[i][j] for j in A] for i in A]
        mb = [[full[i][j] for j in B] for i in B]
        # T ma - mb T = 0, unknowns T[i][k] flattened as i * na + k
        for i in range(nb):
            for j in range(na):
                row = [Fraction(0)] * (na * nb)
                for k in range(na):
                    row[i * na + k] += ma[k][j]
                for k in range(nb):
                    row[k * na + j] -= mb[i][k]
                if any(row):
                    rows.append(row)
    rank = 0
    cols = na * nb
    pivot_col = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return cols - rank


def test_hom_space_dimension_is_kronecker_delta():
    for g in ACYCLIC:
        R = build_rho(g)
        for a in range(len(R.classes)):
            for b in range(len(R.classes)):
                expected = 1 if a == b else 0
                assert hom_space_dim(R, a, b) == expected
                assert _hom_dim_by_elimination(R, a, b) == expected


STAR5 = Graph(
    ("r",) + tuple(f"t{i}" for i in range(5)),
    tuple(Bundle(f"e{i}", "r", f"t{i}") for i in range(5)),
)


@pytest.mark.parametrize(
    "g, label, source, target",
    [
        (FORK, "p_w", vertex_path("w"), vertex_path("v")),
        # p_r's map covers all five blocks, not only the two compared
        (STAR5, "p_r", Path(edges=(EdgeRef("e0"),)), Path(edges=(EdgeRef("e1"),))),
    ],
)
def test_hom_space_dim_refuses_a_generator_leaving_a_block(g, label, source, target):
    R = build_rho(g)
    i, j = R.basis.index(source), R.basis.index(target)
    a, b = R.class_of[i], R.class_of[j]
    live_map(R, label)[i] = j  # now sends source's block into target's
    for pair in ((a, b), (b, a)):
        with pytest.raises(InternalInvariantError, match="^generator leaves a block$"):
            hom_space_dim(R, *pair)


@pytest.mark.parametrize(
    "maps, pair, dense, message",
    [
        # every generator acts on block 1 as it acts on block 0, through v -> w, e -> f
        (
            {"p_v": {"v": "v", "w": "w"}, "p_w": {}, "s_e": {"v": "e", "w": "f"},
             "s_e*": {"e": "v", "f": "w"}, "s_f": {}, "s_f*": {}},
            (0, 1), 1, "p_v has an entry in block 1",
        ),
        # p_v is the identity on block 0, and s_e, s_e* swap v and e
        (
            {"p_v": {"v": "v", "e": "e"}, "p_u": {"f": "f"}, "s_e": {"v": "e", "e": "v"},
             "s_e*": {"e": "v", "v": "e"}},
            (0, 0), 2, "p_v does not project block 0 onto its sink path",
        ),
        # without s_e and s_e*, block 0 splits into the orbits {v} and {e}
        ({"s_e": {}, "s_e*": {}}, (0, 0), 2, "block 0 is not one orbit"),
    ],
    ids=["isomorphic_blocks", "widened_projection", "two_orbits"],
)
def test_hom_space_dim_refuses_maps_that_break_a_hypothesis(maps, pair, dense, message):
    R = build_rho(FORK)
    at = {text: i for i, text in enumerate(R.texts)}
    for label, m in maps.items():
        live_map(R, label).clear()
        live_map(R, label).update({at[j]: at[i] for j, i in m.items()})
    assert _hom_dim_by_elimination(R, *pair) == dense
    with pytest.raises(InternalInvariantError, match=f"^{message}$"):
        hom_space_dim(R, *pair)


# -- matrix units -------------------------------------------------------------


def test_lambda_index_sets():
    chain, edges, lam = lambda_index_set(LINE3, "u")
    assert chain == ("u", "v", "w")
    assert edges == (EdgeRef("e", 0), EdgeRef("f", 0))
    assert lam == (vertex_path("u"), vertex_path("v"), vertex_path("w"))

    chain, _, lam = lambda_index_set(ENTRY4, "u")
    assert chain == ("u", "v", "w")
    assert len(lam) == 4
    assert lam[3] == Path(edges=(EdgeRef("g", 0),))

    chain, edges, lam = lambda_index_set(FORK, "v")
    assert chain == ("v",) and edges == ()
    assert lam == (vertex_path("v"), Path(edges=(EdgeRef("e", 0),)))


def test_lambda_size_matches_index_set():
    for g, v in ((LINE3, "u"), (LINE3, "w"), (ENTRY4, "u"), (FORK, "v"), (PT, "v")):
        assert lambda_size(g, v) == len(lambda_index_set(g, v)[2])


def test_lambda_infinite_cases():
    with pytest.raises(NotFinitelyPresentableError) as err:
        lambda_index_set(OMEGA1, "w")
    assert "omega bundle 'h' feeds the line" in str(err.value)
    assert lambda_size(OMEGA1, "w") is None
    g = Graph(
        ("x", "u"),
        (Bundle("a", "x", "x"), Bundle("c", "x", "u")),
    )
    assert lambda_size(g, "u") is None  # a cycle pumps entries forever


@pytest.mark.parametrize("call", [lambda_size, lambda_index_set, matrix_units])
def test_line_lookups_reject_unknown_vertex(call):
    # an unknown name is not reported as a vertex that fails to be a line point
    with pytest.raises(UnknownNameError, match="unknown vertex 'zz'"):
        call(LINE3, "zz")


def test_matrix_units_line3():
    sys = matrix_units(LINE3, "u")
    assert sys.line == ("u", "v", "w")
    assert len(sys.lam) == 3
    ef = Path(edges=(EdgeRef("e", 0), EdgeRef("f", 0)))
    assert monomial_of(sys, 0, 2) == Monomial(ef, vertex_path("w"))
    assert sys.unit(0, 2) == parse_element(LINE3, "ef.w*")
    assert sys.unit(1, 1) == parse_element(LINE3, "p_v")


def test_matrix_units_star_symmetry():
    for g, v in ((LINE3, "u"), (ENTRY4, "u"), (FORK, "v")):
        sys = matrix_units(g, v)
        n = len(sys.lam)
        for i in range(n):
            for j in range(n):
                assert star(sys.unit(i, j)) == sys.unit(j, i)


def test_matrix_units_delta_rule_symbolically():
    sys = matrix_units(LINE3, "u")
    n = len(sys.lam)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    prod = multiply(LINE3, sys.unit(i, j), sys.unit(k, l))
                    expected = sys.unit(i, l) if j == k else ZERO
                    assert equals(LINE3, prod, expected)


def test_matrix_units_act_as_elementary_matrices():
    for g, v in ((LINE3, "u"), (ENTRY4, "x"), (PT, "v")):
        sys = matrix_units(g, v)
        R = build_rho(g)
        n = len(sys.lam)
        assert R.dimension == n
        mats = [[evaluate(R, sys.unit(i, j)) for j in range(n)] for i in range(n)]
        seen_positions = set()
        for i in range(n):
            for j in range(n):
                entries = [
                    (r, c)
                    for r in range(n)
                    for c in range(n)
                    if mats[i][j][r][c]
                ]
                assert len(entries) == 1
                assert mats[i][j][entries[0][0]][entries[0][1]] == 1
                seen_positions.add(entries[0])
                for k in range(n):
                    for l in range(n):
                        expected = mats[i][l] if j == k else zeros(n)
                        assert matmul(mats[i][j], mats[k][l]) == expected
        assert len(seen_positions) == n * n
        total = zeros(n)
        for i in range(n):
            total = matadd(total, mats[i][i])
        assert total == identity(n)


def test_diagonal_units_sum_to_one():
    for g, v in ((LINE3, "u"), (ENTRY4, "u"), (PT, "v")):
        sys = matrix_units(g, v)
        total = ZERO
        for i in range(len(sys.lam)):
            total = add(total, sys.unit(i, i))
        assert equals(g, total, one(g))


# -- the isomorphism ------------------------------------------------------------


def test_naimark_isomorphism_positive_cases():
    for g, v, n in ((LINE3, "u", 3), (PT, "v", 1), (ENTRY4, "x", 4), (ENTRY4, "u", 4)):
        sys = naimark_isomorphism(g, v)
        assert len(sys.lam) == n
        assert dimension(g) == n * n


def test_naimark_isomorphism_rejects_non_witness():
    with pytest.raises(ContractError) as err:
        naimark_isomorphism(FORK, "v")
    assert "does not witness" in str(err.value)


def line_graph(n):
    vs = tuple(f"v{i}" for i in range(n))
    return Graph(vs, tuple(Bundle(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)))


def diamond_chain(k):
    """c0 => c1 => ... => ck, each step through two middle vertices: |Lambda| = 2^(k+2) - 3."""
    c = [f"c{i}" for i in range(k + 1)]
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    bundles = []
    for i in range(k):
        bundles += [
            Bundle(f"p{i}", c[i], a[i]),
            Bundle(f"q{i}", c[i], b[i]),
            Bundle(f"x{i}", a[i], c[i + 1]),
            Bundle(f"y{i}", b[i], c[i + 1]),
        ]
    return Graph(tuple(c + a + b), tuple(bundles))


@pytest.mark.parametrize("build, size", [(lambda: line_graph(150), 150), (lambda: diamond_chain(10), 4093)])
def test_naimark_isomorphism_is_output_sized(build, size):
    # the stored |Lambda|^2 grid and edge-by-edge line collapse took
    # minutes on both
    g = build()
    witness = check_condition5(g)
    start = time.perf_counter()
    sys = naimark_isomorphism(g, witness)
    assert time.perf_counter() - start < 1.0
    assert len(sys.lam) == size and dimension(g) == size * size


def test_irreducibility_is_linear_in_the_block():
    # one orbit walk per start took 5.5-6.7 s on this block of 4,093
    # basis paths, on a 2-core VM
    R = build_rho(diamond_chain(10))
    start = time.perf_counter()
    verdicts = [verify_irreducible_block(R, c) for c in range(len(R.classes))]
    assert time.perf_counter() - start < 1.0
    (ok, certificate), = verdicts
    assert ok and len(R.classes[0]) == len(certificate) == 4093
    assert all(v == R.basis for v in certificate.values())


def test_intertwiners_are_linear_in_the_block():
    # the union-find over the n^2 entries of T took 4.9 s on this block of
    # 2,045 basis paths, on a 2-core VM
    R = build_rho(diamond_chain(9))
    start = time.perf_counter()
    ok, _ = verify_irreducible_block(R, 0)
    d = hom_space_dim(R, 0, 0)
    assert time.perf_counter() - start < 1.0
    assert ok and d == 1 and len(R.classes) == 1 and len(R.classes[0]) == 2045


def sparse_product(a, b):
    """The nonzero entries of the matrix product a.b, by rows."""
    b_rows = [{j: c for j, c in enumerate(row) if c} for row in b]
    out = {}
    for i, row in enumerate(a):
        for k, c in enumerate(row):
            for j, d in b_rows[k].items() if c else ():
                out[i, j] = out.get((i, j), 0) + c * d
    return {ij: c for ij, c in out.items() if c}


def test_element_algebra_on_diamond_chain_is_fast(rng):
    # every term ranges at c0 or c1, so it acts on most of the basis;
    # normalising each result twice and building two paths per basis
    # position and term in evaluate took 1.1-1.7 s on a 2-core VM, three
    # times the time of one normalising pass and the partial maps.  Normal
    # forms gain only about twice, so they are checked after the timed part.
    g = diamond_chain(5)
    R = build_rho(g)
    by_range = [paths_into(g, "c0"), paths_into(g, "c1")]

    def draw():
        terms = []
        for _ in range(6):
            paths = by_range[rng.randrange(len(by_range))]
            alpha, beta = paths[rng.randrange(len(paths))], paths[rng.randrange(len(paths))]
            terms.append((Monomial(alpha, beta), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))))
        return element(terms)

    pairs = [(draw(), draw()) for _ in range(384)]
    start = time.perf_counter()
    checked = []
    for x, y in pairs:
        xy = multiply(g, x, y)
        evaluated = evaluate(R, x), evaluate(R, y), evaluate(R, xy)
        stars = star(xy), multiply(g, star(y), star(x))
        if len(checked) < 16:
            checked.append((evaluated, stars))
    assert time.perf_counter() - start < 1.0
    for (ex, ey, exy), (star_of_product, product_of_stars) in checked:
        assert normal_form(g, star_of_product) == normal_form(g, product_of_stars)
        assert sparse_product(ex, ey) == {
            (i, j): c for i, row in enumerate(exy) for j, c in enumerate(row) if c
        }


def corrupted_lines():
    """(graph, chain, edges) triples whose line facts fail, by name; the index set is the chain."""
    second = Graph(
        ("u", "v", "w", "x"),
        (Bundle("e", "u", "v"), Bundle("f", "v", "w"), Bundle("h", "v", "x")),
    )
    e, f = EdgeRef("e"), EdgeRef("f")
    return {
        "truncated chain": (LINE3, ("u", "v"), (e,)),
        "line vertex with a second bundle": (second, ("u", "v", "w"), (e, f)),
        "edges out of order": (LINE3, ("u", "v", "w"), (f, e)),
    }


@pytest.mark.parametrize("name", list(corrupted_lines()))
def test_verify_units_rejects_corrupted_lines(name):
    g, chain, edges = corrupted_lines()[name]
    lam = tuple(vertex_path(w) for w in chain)
    with pytest.raises(InternalInvariantError):
        _verify_units(g, chain, edges, lam)
