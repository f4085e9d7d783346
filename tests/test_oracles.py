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
spaces, and compared with the output-sized checks of ``leavitt.repn``.
"""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from leavitt.algebra import Monomial, multiply_monomials  # noqa: E402
from leavitt.boundary import _doubled_component, enumerate_classes  # noqa: E402
from leavitt.errors import InternalInvariantError  # noqa: E402
from leavitt.graph import (  # noqa: E402
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    Path,
    _least_rotation,
    bundle_circuits,
    count_paths_into,
    has_cycle,
    is_omega,
    line_points,
    out_degree,
    path_key,
    paths_into,
    strongly_connected_components,
    tree_of,
    vertices_on_cycles,
)
from leavitt.naimark import check_condition5  # noqa: E402
from leavitt.repn import (  # noqa: E402
    _collapse_line_tail,
    _unit_grid,
    _verify_unit_grid,
    build_rho,
    hom_space_dim,
    lambda_index_set,
    matrix_units,
    verify_irreducible_block,
    verify_relations,
)

from sweeputil import base_graphs  # noqa: E402

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


# -- matrix units: the exhaustive delta rule -------------------------------------


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
                        if prod is None or _collapse_line_tail(g, line_edges, prod) != target[l]:
                            return False
                    elif prod is not None:
                        return False
    return True


def fast_unit_check(g, chain, edges, lam, grid):
    try:
        _verify_unit_grid(g, chain, edges, lam, grid)
    except InternalInvariantError:
        return False
    return True


def shaped_grid(g, chain, edges, lam):
    return [list(row) for row in _unit_grid(g, chain, edges, lam)]


def unit_verdicts(g, v):
    sys = matrix_units(g, v)
    grid = [[x.terms[0][0] for x in row] for row in sys.grid]
    args = (g, sys.line, sys.line_edges, sys.lam, grid)
    return fast_unit_check(*args), exhaustive_unit_check(*args)


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
    assert positives == 1557


def test_unit_checks_agree_on_brooms():
    for lam in range(1, 13):
        for handle in sorted({1, max(1, lam // 2), lam}):
            g = broom(handle, lam - handle)
            for v in {g.vertices[0], g.vertices[-1]}:
                assert unit_verdicts(g, v) == (True, True)


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
    args = (g, chain, edges, *cases[name])
    assert fast_unit_check(*args) is False
    assert exhaustive_unit_check(*args) is False


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


@settings(max_examples=120, deadline=None, database=None)
@given(acyclic_graphs())
def test_representation_checks_match_exhaustive_loops_and_sympy(g):
    R = build_rho(g)
    verify_relations(R)
    pairwise_relations(R)
    k = len(R.classes)
    for c in range(k):
        assert verify_irreducible_block(R, c) == all_generator_orbits(R, c)
    for a in range(k):
        for b in range(k):
            d = hom_space_dim(R, a, b)
            assert d == dense_hom_space_dim(R, a, b) == (1 if a == b else 0)
            if len(R.classes[a]) * len(R.classes[b]) <= 64:
                assert d == sympy_hom_space_dim(R, a, b)


def test_relation_checks_reject_overlapping_images():
    # s_h#1 made equal to s_h#0: every relation but s_h#0* s_h#1 = 0 holds
    g = Graph(("x", "w"), (Bundle("h", "x", "w", 2),))
    R = build_rho(g)
    R._maps["s_h#1"] = dict(R._maps["s_h#0"])
    R._maps["s_h#1*"] = dict(R._maps["s_h#0*"])
    with pytest.raises(InternalInvariantError, match=r"relation s\*h#0 sh#1 fails"):
        verify_relations(R)
    with pytest.raises(InternalInvariantError, match="s_e\\* s_f"):
        pairwise_relations(R)
