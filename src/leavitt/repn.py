"""Boundary-path representations with exact rational matrices.

For an acyclic graph with finite multiplicities the boundary paths are
exactly the finite paths into sinks; they form the basis of the
representation space.  Each generator acts as a partial injection of the
basis: ``s_e`` prepends the edge e where sources match, ``s_e*`` strips
it, and ``p_v`` projects onto paths starting at v.  Dense matrices with
exact rational entries are derived from these maps on demand.

The basis splits into blocks indexed by shift-tail classes (here: by the
sink a path ends at); every generator preserves the blocks, each block
carries an irreducible representation, and the intertwiner space between
two blocks has dimension 1 on the diagonal and 0 off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    Monomial,
    dimension,
    multiply_monomials,
)
from .errors import (
    ContractError,
    InternalInvariantError,
    NotFinitelyPresentableError,
    UnsupportedGraphError,
)
from .graph import (
    EdgeRef,
    Graph,
    Path,
    concat,
    count_paths_into,
    has_cycle,
    is_omega,
    line_through,
    path_key,
    paths_into,
    render_edge_ref,
    saturate,
    starts_with,
    strip_prefix,
    tree_of,
    vertex_path,
)

PartialMap = dict[int, int]


class BoundaryRepresentation:
    """The boundary-path representation of an acyclic finite-multiplicity graph.

    Immutable after construction.  ``basis`` lists the boundary paths;
    ``classes`` partitions basis positions by shift-tail class (one block
    per sink, in vertex order); ``block_labels`` lists, per block, the
    generators whose map is defined somewhere in it, in label order.
    """

    def __init__(self, g: Graph):
        if any(is_omega(b.multiplicity) for b in g.bundles):
            raise UnsupportedGraphError("the representation requires finite multiplicities")
        if has_cycle(g):
            raise UnsupportedGraphError("the representation requires an acyclic graph")
        self.graph = g
        sinks = [v for v in g.vertices if not g.out_bundles(v)]
        basis: list[Path] = []
        for t in sinks:
            basis.extend(paths_into(g, t))
        basis.sort(key=path_key)
        self.basis = tuple(basis)
        self.index = index = {p: i for i, p in enumerate(basis)}
        by_sink = {t: [] for t in sinks}
        by_source = {v: [] for v in g.vertices}
        for i, p in enumerate(basis):
            by_sink[g.path_range(p)].append(i)
            by_source[g.path_source(p)].append(i)
        self.classes = tuple(tuple(by_sink[t]) for t in sinks)
        self.class_of = [0] * len(basis)
        for c, block in enumerate(self.classes):
            for i in block:
                self.class_of[i] = c
        self._maps: dict[str, PartialMap] = {}
        for v in g.vertices:
            self._maps[f"p_{v}"] = {i: i for i in by_source[v]}
        for ref in g.edge_refs():
            head = (ref,)
            fwd = {
                i: index[Path(edges=head + basis[i].edges)]
                for i in by_source[g.range_of(ref)]
            }
            name = render_edge_ref(g, ref)
            self._maps[f"s_{name}"] = fwd
            self._maps[f"s_{name}*"] = {j: i for i, j in fwd.items()}
        acting: list[list[str]] = [[] for _ in self.classes]
        for label, m in self._maps.items():
            for c in sorted({self.class_of[i] for i in m}):
                acting[c].append(label)
        self.block_labels = tuple(tuple(labels) for labels in acting)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def generator_labels(self) -> tuple[str, ...]:
        return tuple(self._maps)

    def generator_map(self, label: str) -> PartialMap:
        return dict(self._maps[label])

    def vertex_map(self, v: str) -> PartialMap:
        return dict(self._maps[f"p_{v}"])

    def edge_map(self, ref: EdgeRef) -> PartialMap:
        return dict(self._maps[f"s_{render_edge_ref(self.graph, ref)}"])

    def edge_star_map(self, ref: EdgeRef) -> PartialMap:
        return dict(self._maps[f"s_{render_edge_ref(self.graph, ref)}*"])

    def matrix(self, label: str) -> tuple[tuple[Fraction, ...], ...]:
        """Dense matrix of a generator: entry [image, argument] is 1."""
        n = len(self.basis)
        m = self._maps[label]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j, i in m.items():
            rows[i][j] = Fraction(1)
        return tuple(tuple(r) for r in rows)


def build_rho(g: Graph) -> BoundaryRepresentation:
    return BoundaryRepresentation(g)


def _compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """The partial map 'apply b, then a' (the matrix product a.b)."""
    return {j: a[i] for j, i in b.items() if i in a}


def verify_relations(R: BoundaryRepresentation) -> None:
    """Check the four generating relation families on the partial maps.

    Per edge e: p_s(e) s_e = s_e = s_e p_r(e) and the same for s_e*,
    s_e* is the inverse of s_e, and s_e* s_e = p_r(e).  Per regular
    vertex: p_v is the disjoint sum of the range projections s_e s_e*.
    The pairwise relations s_e* s_f = 0 for e != f are checked through
    the images: s_e* s_f is defined at a basis path exactly when s_f
    sends it into the domain of s_e*, which is the image of s_e, so all
    of them vanish iff the images of distinct edges are disjoint.  One
    map from image position to owning edge decides that in
    O(|E| |basis|) instead of composing every pair of edges.

    Raises InternalInvariantError with the failing relation.
    """
    g = R.graph
    maps = R._maps
    owner: dict[int, EdgeRef] = {}
    for ref in g.edge_refs():
        name = render_edge_ref(g, ref)
        e = maps[f"s_{name}"]
        estar = maps[f"s_{name}*"]
        ps = maps[f"p_{g.source_of(ref)}"]
        pr = maps[f"p_{g.range_of(ref)}"]
        if _compose(ps, e) != e or _compose(e, pr) != e:
            raise InternalInvariantError(f"relation p s = s = s p fails for {name}")
        if _compose(pr, estar) != estar or _compose(estar, ps) != estar:
            raise InternalInvariantError(f"relation p s* = s* = s* p fails for {name}")
        if estar != {i: j for j, i in e.items()}:
            raise InternalInvariantError(f"s_{name}* is not the inverse of s_{name}")
        if _compose(estar, e) != pr:
            raise InternalInvariantError(f"relation s*{name} s{name} fails")
        for i in e.values():
            first = owner.setdefault(i, ref)
            if first != ref:
                raise InternalInvariantError(
                    f"relation s*{render_edge_ref(g, first)} s{name} fails"
                )
    for v in g.vertices:
        out = g.out_bundles(v)
        if not out:
            continue
        union: PartialMap = {}
        for b in out:
            for i in range(b.multiplicity):
                name = render_edge_ref(g, EdgeRef(b.name, i))
                piece = _compose(maps[f"s_{name}"], maps[f"s_{name}*"])
                for j, i2 in piece.items():
                    if j != i2 or j in union:
                        raise InternalInvariantError(f"summands at {v!r} overlap")
                    union[j] = i2
        if union != maps[f"p_{v}"]:
            raise InternalInvariantError(f"relation p_v = sum s_e s_e* fails at {v!r}")


def evaluate(R: BoundaryRepresentation, x: AlgebraElement) -> tuple[tuple[Fraction, ...], ...]:
    """Dense matrix of an algebra element in the representation."""
    g = R.graph
    n = len(R.basis)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for m, c in x.terms:
        g.check_path(m.alpha)
        g.check_path(m.beta)
        for j, delta in enumerate(R.basis):
            if not starts_with(g, delta, m.beta):
                continue
            rest = strip_prefix(g, delta, m.beta)
            gamma = concat(m.alpha, rest)
            i = R.index.get(gamma)
            if i is not None:
                rows[i][j] += c
    return tuple(tuple(r) for r in rows)


def decompose_blocks(R: BoundaryRepresentation) -> tuple[tuple[tuple[Path, ...], int], ...]:
    """The block decomposition: (paths of the block, block dimension) per class."""
    return tuple(
        (tuple(R.basis[i] for i in block), len(block)) for block in R.classes
    )


def blocks_invariant(R: BoundaryRepresentation) -> bool:
    """True iff every generator maps each block into itself."""
    class_of = R.class_of
    return all(
        class_of[j] == class_of[i] for m in R._maps.values() for j, i in m.items()
    )


def verify_irreducible_block(
    R: BoundaryRepresentation, block_index: int
) -> tuple[bool, dict[Path, tuple[Path, ...]]]:
    """Orbit test for irreducibility of one block.

    For every basis vector of the block, the smallest invariant subspace
    containing it must be the whole block.  Since generators map basis
    vectors to basis vectors (or zero), that subspace is spanned by the
    orbit of the starting vector, which the certificate records.

    The orbits follow only the generators acting on the block.  While no
    generator leaves the block, an orbit never reaches a vector the other
    generators act on, so orbits and certificate are those of all
    generators; once one leaves, an orbit contains a vector outside the
    block and the verdict is False either way.  The moves are gathered
    once per block, so each orbit costs its own size plus its moves.
    """
    block = R.classes[block_index]
    block_set = set(block)
    moves: dict[int, list[int]] = {i: [] for i in block}
    for label in R.block_labels[block_index]:
        for j, i in R._maps[label].items():
            if j in block_set:
                moves[j].append(i)
    basis = R.basis
    whole = tuple(basis[i] for i in block)
    certificate = {}
    ok = True
    for start in block:
        seen = {start}
        frontier = [start]
        while frontier:
            for nxt in moves.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        # the basis is sorted by path_key, so positions sort the same way
        if seen == block_set:
            certificate[basis[start]] = whole
        else:
            ok = False
            certificate[basis[start]] = tuple(basis[i] for i in sorted(seen))
    return ok, certificate


def hom_space_dim(R: BoundaryRepresentation, a: int, b: int) -> int:
    """Dimension of the intertwiner space between blocks ``a`` and ``b``.

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
    A = R.classes[a]
    B = R.classes[b]
    pos_a = {gi: j for j, gi in enumerate(A)}
    pos_b = {gi: i for i, gi in enumerate(B)}
    na, nb = len(A), len(B)
    size = na * nb
    parent = list(range(size))
    forced_zero = bytearray(size)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for label in dict.fromkeys(R.block_labels[a] + R.block_labels[b]):
        m = R._maps[label]
        f = {}
        h_inv = {}
        for gj, gi in m.items():
            if gj in pos_a:
                if gi not in pos_a:
                    raise InternalInvariantError("generator leaves a block")
                f[pos_a[gj]] = pos_a[gi]
            if gj in pos_b:
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


# -- matrix units ----------------------------------------------------------


@dataclass(frozen=True)
class MatrixUnitSystem:
    """Matrix units e_{alpha,beta} indexed by the entry paths of a line point.

    ``lam`` lists the index set: the line vertices (as length-0 paths)
    followed by the paths entering the line from outside; ``grid[i][j]``
    is the unit for (lam[i], lam[j]).  All units are single monomials.
    """

    line: tuple[str, ...]
    line_edges: tuple[EdgeRef, ...]
    lam: tuple[Path, ...]
    grid: tuple[tuple[AlgebraElement, ...], ...]

    def unit(self, i: int, j: int) -> AlgebraElement:
        return self.grid[i][j]


def lambda_index_set(g: Graph, v: str) -> tuple[tuple[str, ...], tuple[EdgeRef, ...], tuple[Path, ...]]:
    """The line through ``v`` and the index set of its matrix units.

    The index set contains one length-0 path per line vertex plus every
    path whose last edge enters the line from outside (no shorter prefix
    already ends on the line).  Raises when the set is infinite.
    """
    chain, edges = line_through(g, v)
    tset = set(chain)
    entering = []
    for w in chain:
        for b in g.in_bundles(w):
            if b.source in tset:
                continue
            if is_omega(b.multiplicity):
                raise NotFinitelyPresentableError(
                    f"omega bundle {b.name!r} feeds the line at {w!r}; "
                    "the matrix-unit index set is infinite"
                )
            heads = paths_into(g, b.source)
            for head in heads:
                for i in range(b.multiplicity):
                    entering.append(Path(edges=head.edges + (EdgeRef(b.name, i),)))
    entering.sort(key=path_key)
    lam = tuple(vertex_path(w) for w in chain) + tuple(entering)
    return chain, edges, lam


def lambda_size(g: Graph, v: str) -> int | None:
    """|Lambda| for the line point ``v``; None when countably infinite."""
    chain, _ = line_through(g, v)
    tset = set(chain)
    total = len(chain)
    for w in chain:
        for b in g.in_bundles(w):
            if b.source in tset:
                continue
            if is_omega(b.multiplicity):
                return None
            heads = count_paths_into(g, b.source)
            if heads is None:
                return None
            total += b.multiplicity * heads
    return total


def matrix_units(g: Graph, v: str) -> MatrixUnitSystem:
    """Build and verify the matrix units of the ideal generated by a line point.

    For entry paths alpha, beta ending at line positions i <= j the unit
    is s_(alpha mu) s_beta* with mu the line path from i to j (the
    adjoint shape when i > j).  All delta relations and the star relation
    are verified symbolically before returning (see ``_verify_unit_grid``).
    """
    chain, edges, lam = lambda_index_set(g, v)
    monos = _unit_grid(g, chain, edges, lam)
    _verify_unit_grid(g, chain, edges, lam, monos)
    # a single term with coefficient one is already in normal form
    one = Fraction(1)
    grid = tuple(tuple(AlgebraElement(((m, one),)) for m in row) for row in monos)
    return MatrixUnitSystem(chain, edges, lam, grid)


def _unit_grid(g: Graph, chain, edges, lam) -> tuple[tuple[Monomial, ...], ...]:
    """The unit monomial for every pair of ``lam``, by the construction's shape.

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
        rows.append(tuple(row))
    return tuple(rows)


def _verify_unit_grid(g: Graph, chain, edges, lam, grid) -> None:
    """Certify that a grid of monomials is a system of matrix units over ``lam``.

    ``chain`` and ``edges`` are the line, ``lam`` the index set with the
    line vertices first, and ``grid[i][j]`` the monomial of unit (i, j).
    The certificate is the star symmetry e_ij* = e_ji and the delta rule
    e_ij e_kl = delta_jk e_il, where a product is reduced by contracting
    a shared line tail (``_collapse_line_tail``).  Instead of forming all
    |lam|^4 products it checks, in O(|lam|^2 |line| + |line|^3):

    (a) the members of ``lam`` are pairwise incomparable (neither is a
        prefix of the other);
    (b) no member ends in a line edge;
    (c) every unit has the construction's shape, s_(lam_i mu) s_lam_j*
        with mu the line path from the range of lam_i to that of lam_j,
        or the adjoint shape when lam_i ranges further down the line;
    (d) the delta rule e_ij e_jl = e_il on the line block, the units
        whose indices are the line vertices themselves.

    Why this is the whole delta rule.  By (c) the right path of e_ij is
    lam_j x and the left path of e_kl is lam_k y for line paths x, y.
    Their product is nonzero iff one of these is a prefix of the other,
    and then lam_j and lam_k are both prefixes of the longer path, hence
    comparable; so (a) makes every product with j != k vanish, and (a)
    is needed, since comparable lam_j, lam_k give a nonzero e_jj e_kk.
    For j = k the product strips lam_j from both sides and leaves
    s_(lam_i mu) s_(lam_l nu)* with mu, nu line paths to the furthest of
    the three line positions; the contraction then removes shared line
    edges down to the nearer of the positions of lam_i and lam_l, where
    one side is lam_i or lam_l itself, and by (b) it stops there.  Every
    step depends only on the three line positions, with lam_i and lam_l
    as opaque prefixes, so the product is e_il iff the line-block product
    for the same positions is, which (d) checks.  (b) is needed too: a
    member lam = nu e with e a line edge makes e_ii e_ii contract past
    lam.  So on grids of the construction's shape this check and the
    exhaustive one give the same verdict.

    Raises InternalInvariantError naming the first failure.
    """
    n = len(lam)
    pos = {w: i for i, w in enumerate(chain)}
    line_edges = set(edges)
    for i in range(n):
        row = grid[i]
        for j in range(n):
            m = row[j]
            if Monomial(m.beta, m.alpha) != grid[j][i]:
                raise InternalInvariantError("matrix units are not star symmetric")
    for j in range(n):
        for k in range(j + 1, n):
            if starts_with(g, lam[j], lam[k]) or starts_with(g, lam[k], lam[j]):
                raise InternalInvariantError(
                    f"unit product ({j},{j})({k},{k}) should vanish: "
                    "index paths are comparable"
                )
    for i, p in enumerate(lam):
        if p.length and p.edges[-1] in line_edges:
            raise InternalInvariantError(f"index path {i} ends in a line edge")
        if g.path_range(p) not in pos:
            raise InternalInvariantError(f"index path {i} does not end on the line")
    if lam[: len(chain)] != tuple(vertex_path(w) for w in chain):
        raise InternalInvariantError("the index set does not start with the line")
    for i, row in enumerate(_unit_grid(g, chain, edges, lam)):
        for j, m in enumerate(row):
            if grid[i][j] != m:
                raise InternalInvariantError(f"unit ({i},{j}) is not s_(alpha mu) s_beta*")
    k = len(chain)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                prod = multiply_monomials(g, grid[i][j], grid[j][l])
                # products sit further down the line than the target
                # unit; the shared tail contracts one edge at a time
                # through the line relations
                if prod is None or _collapse_line_tail(g, line_edges, prod) != grid[i][l]:
                    raise InternalInvariantError(
                        f"unit product ({i},{j})({j},{l}) is not unit ({i},{l})"
                    )


def naimark_isomorphism(g: Graph, v: str) -> MatrixUnitSystem:
    """Matrix units realizing the whole algebra for a witnessing line point.

    Requires that the saturation of the line point's tree is every
    vertex.  Checks that the algebra dimension equals |Lambda| squared
    and that rewriting each sink-basis monomial into unit coordinates is
    a bijection onto Lambda x Lambda.
    """
    if set(saturate(g, tree_of(g, v))) != set(g.vertices):
        raise ContractError(
            f"line point {v!r} does not witness the uniqueness condition"
        )
    sys = matrix_units(g, v)
    n = len(sys.lam)
    if dimension(g) != n * n:
        raise InternalInvariantError("algebra dimension differs from |Lambda|^2")
    tset = set(sys.line)
    line_edges = set(sys.line_edges)
    lam_index = {p: i for i, p in enumerate(sys.lam)}

    def coordinate(p: Path) -> int:
        # shortest prefix of p whose range lies on the line
        if g.path_source(p) in tset:
            prefix = vertex_path(g.path_source(p))
        else:
            prefix = None
            for k in range(1, p.length + 1):
                if g.range_of(p.edges[k - 1]) in tset:
                    prefix = Path(edges=p.edges[:k])
                    break
            if prefix is None:
                raise InternalInvariantError(f"basis path never meets the line: {p}")
        i = lam_index.get(prefix)
        if i is None:
            raise InternalInvariantError(f"entry prefix is not a Lambda member: {prefix}")
        return i

    seen = set()
    sinks = [t for t in g.vertices if not g.out_bundles(t)]
    for t in sinks:
        into = paths_into(g, t)
        coords = [coordinate(p) for p in into]
        for alpha, i in zip(into, coords):
            for beta, j in zip(into, coords):
                expected = monomial_of(sys, i, j)
                got = _collapse_line_tail(g, line_edges, Monomial(alpha, beta))
                if got != expected:
                    raise InternalInvariantError(
                        "sink monomial does not reduce to its matrix unit"
                    )
                if (i, j) in seen:
                    raise InternalInvariantError("unit coordinates repeat")
                seen.add((i, j))
    if len(seen) != n * n:
        raise InternalInvariantError("unit coordinates do not cover Lambda x Lambda")
    return sys


def monomial_of(sys: MatrixUnitSystem, i: int, j: int) -> Monomial:
    return sys.grid[i][j].terms[0][0]


def _drop_last(g: Graph, p: Path) -> Path:
    if p.length == 1:
        return vertex_path(g.source_of(p.edges[0]))
    return Path(edges=p.edges[:-1])


def _collapse_line_tail(g: Graph, line_edges: set, m: Monomial) -> Monomial:
    """Strip a shared line tail: s_(a e) s_(b e)* = s_a s_b* for line edges e.

    Valid because every line vertex is regular with a single outgoing
    edge, so its summation relation has one term.
    """
    alpha, beta = m.alpha, m.beta
    while (
        alpha.length > 0
        and beta.length > 0
        and alpha.edges[-1] == beta.edges[-1]
        and alpha.edges[-1] in line_edges
    ):
        alpha, beta = _drop_last(g, alpha), _drop_last(g, beta)
    return Monomial(alpha, beta)
