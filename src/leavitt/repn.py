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

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    Monomial,
    _check_monomial,
    _require_acyclic_finite,
    dimension,
)
from .errors import ContractError, InternalInvariantError, UnknownNameError
from .graph import (
    EdgeRef,
    Graph,
    Path,
    _entry_exits,
    _paths_ending,
    _postorder,
    _rows,
    _text_head,
    concat,
    count_entry_paths,
    entry_paths,
    line_through,
    render_edge_ref,
    saturate,
    singular_vertices,
    tree_of,
    vertex_path,
)

PartialMap = dict[int, int]
Key = tuple[str, object]


class BoundaryRepresentation:
    """The boundary-path representation of an acyclic finite-multiplicity graph.

    Immutable after construction.  ``basis`` lists the boundary paths in
    ``path_key`` order and ``texts``, listed on first read, their texts, as
    ``render_path`` gives them; ``classes`` partitions basis positions by
    shift-tail class (one block per sink, in vertex order); ``block_labels``
    lists, per block, the generators whose map is defined somewhere in it,
    in label order, rendered on first read.  The private ``_maps`` holds each
    map once, keyed ("p", v), ("s", e) or ("s*", e) in label order, and
    ``_acting[c]`` maps each generator of block c to its map and positions there.
    """

    def __init__(self, g: Graph):
        _require_acyclic_finite(g, "the representation")
        self.graph = g
        sinks = singular_vertices(g)
        self.basis = basis = tuple(_paths_ending(g, sinks, {}))
        block_of = {t: c for c, t in enumerate(sinks)}
        self.class_of = class_of = [block_of[g.path_range(p)] for p in basis]
        blocks = [[] for _ in sinks]
        by_source = {v: [] for v in g.vertices}
        by_first_edge = {ref: [] for ref in g.edge_refs()}
        for i, p in enumerate(basis):
            blocks[class_of[i]].append(i)
            by_source[g.path_source(p)].append(i)
            if p.edges:
                by_first_edge[p.edges[0]].append(i)
        self.classes = tuple(map(tuple, blocks))
        self._maps = {("p", v): {i: i for i in at} for v, at in by_source.items()}
        for ref, starting in by_first_edge.items():
            # prepending e is a bijection from the basis paths at r(e) onto those
            # starting with e, and it keeps path_key order, so it pairs them in order
            at_range = by_source[g.range_of(ref)]
            self._maps["s", ref] = dict(zip(at_range, starting))
            self._maps["s*", ref] = dict(zip(starting, at_range))
        self._acting = acting = tuple({} for _ in self.classes)
        for key, m in self._maps.items():
            for j in m:
                acting[class_of[j]].setdefault(key, (m, []))[1].append(j)

    def _label(self, key: Key) -> str:
        """The text of a generator: ``p_v``, ``s_e`` or ``s_e*``."""
        kind, x = key
        if kind == "p":
            return f"p_{x}"
        name = render_edge_ref(self.graph, x)
        return f"s_{name}*" if kind == "s*" else f"s_{name}"

    @cached_property
    def _keys(self) -> dict[str, Key]:
        return {self._label(key): key for key in self._maps}

    @cached_property
    def block_labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(map(self._label, acting)) for acting in self._acting)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        sinks = singular_vertices(self.graph)
        return (*sorted(sinks), *_rows(self.graph, sinks, {}, _text_head, ""))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def generator_labels(self) -> tuple[str, ...]:
        return tuple(self._keys)

    def generator_map(self, label: str) -> PartialMap:
        try:
            return dict(self._maps[self._keys[label]])
        except (KeyError, TypeError):
            raise UnknownNameError(f"unknown generator {label!r}") from None

    def vertex_map(self, v: str) -> PartialMap:
        self.graph.vertex_index(v)  # raises UnknownNameError
        return dict(self._maps["p", v])

    def edge_map(self, ref: EdgeRef) -> PartialMap:
        self.graph.check_edge(ref)
        return dict(self._maps["s", ref])

    def edge_star_map(self, ref: EdgeRef) -> PartialMap:
        self.graph.check_edge(ref)
        return dict(self._maps["s*", ref])

    def matrix(self, label: str) -> tuple[tuple[Fraction, ...], ...]:
        """Dense matrix of a generator: entry [image, argument] is 1."""
        m = self.generator_map(label)
        n = len(self.basis)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j, i in m.items():
            rows[i][j] = Fraction(1)
        return tuple(tuple(r) for r in rows)

    def _block(self, c: int) -> tuple[int, ...]:
        """The basis positions of block ``c``; raises ContractError outside 0..k-1."""
        k = len(self.classes)
        if not (isinstance(c, int) and not isinstance(c, bool) and 0 <= c < k):
            raise ContractError(f"block index {c!r} is outside 0..{k - 1}")
        return self.classes[c]


def build_rho(g: Graph) -> BoundaryRepresentation:
    return BoundaryRepresentation(g)


def verify_relations(R: BoundaryRepresentation) -> None:
    """Check every defining relation on the partial maps, as facts about domains and images.

    Write D_v for the domain of p_v.  Per edge e, in edge order:

    1. s_e maps D_r(e) into D_s(e), and s_e* maps D_s(e) into D_r(e);
    2. s_e* is the inverse of s_e;
    3. |s_e*| = |D_r(e)|;
    4. no earlier edge has an image of s_e.

    Then 5. at each regular vertex v the images of v's edges number |D_v|,
    and last 6. every p_v is the identity on its domain, and the domains
    are pairwise disjoint.  Each map entry is read a bounded number of
    times, so the check costs O(n + entries).

    Why these are the relations.  (V) p_v p_w = delta_vw p_v = p_v* is 6:
    a partial map p with p* = p is an involution of its domain, and with
    p p = p also x = p(p(x)) = p(x).  Given 6, (E1) p_s(e) s_e = s_e =
    s_e p_r(e) and (E2), the same for s_e*, are 1.  The adjoint of s_e,
    its transpose, is a partial map iff s_e is injective, and is then its
    inverse.  The inverse has one entry per image, so by 1
    |s_e*| <= |s_e| <= |D_r(e)|, with equality iff s_e is injective and
    defined on all of D_r(e): given 2, 3 says both that s_e* is the
    adjoint of s_e and that (CK1) s_e* s_e = p_r(e) holds.  s_e* s_f is
    defined at x iff s_f x lies in the domain of s_e*, the image of s_e,
    so (CK1) s_e* s_f = 0 for all e != f is 4.  Each s_e s_e* is then the
    identity on the image of s_e, inside D_v by 1, and the images are
    disjoint, so (CK2) p_v = sum s_e s_e* says they cover D_v: 5.

    While 6 holds, the checks fail where composing the maps in the same
    order would first fail, and name the same relation; where it does
    not hold, some check fails.  Raises InternalInvariantError with the
    failing relation.
    """
    g = R.graph
    maps = R._maps
    name = partial(render_edge_ref, g)  # called only for a failure
    owner: dict[int, EdgeRef] = {}
    images = dict.fromkeys(g.vertices, 0)
    for ref in g.edge_refs():
        b = g.bundle(ref.bundle)
        e, estar = maps["s", ref], maps["s*", ref]
        ds, dr = maps["p", b.source], maps["p", b.range]
        images[b.source] += len(estar)
        if not (e.keys() <= dr.keys() and all(i in ds for i in e.values())):
            raise InternalInvariantError(f"relation p s = s = s p fails for {name(ref)}")
        if not (estar.keys() <= ds.keys() and all(j in dr for j in estar.values())):
            raise InternalInvariantError(f"relation p s* = s* = s* p fails for {name(ref)}")
        if estar != {i: j for j, i in e.items()}:
            s_e, s_e_star = R._label(("s", ref)), R._label(("s*", ref))
            raise InternalInvariantError(f"{s_e_star} is not the inverse of {s_e}")
        if len(estar) != len(dr):
            raise InternalInvariantError(f"relation s*{name(ref)} s{name(ref)} fails")
        for i in e.values():
            first = owner.setdefault(i, ref)
            if first != ref:
                raise InternalInvariantError(f"relation s*{name(first)} s{name(ref)} fails")
    for v in g.vertices:
        if g.out_bundles(v) and len(maps["p", v]) != images[v]:
            raise InternalInvariantError(f"relation p_v = sum s_e s_e* fails at {v!r}")
    seen: set[int] = set()
    for v in g.vertices:
        p = maps["p", v]
        if any(j != i for j, i in p.items()) or not seen.isdisjoint(p):
            raise InternalInvariantError(f"relation p_v p_w = delta p_v fails at {v!r}")
        seen.update(p)


def evaluate(R: BoundaryRepresentation, x: AlgebraElement) -> tuple[tuple[Fraction, ...], ...]:
    """Dense matrix of an algebra element in the representation.

    s_alpha s_beta* sends each basis path beta r to alpha r and kills the
    others.  The paths r are the basis paths starting at the range of
    beta, the domain of its vertex projection.  Their positions go
    through the partial maps s_e of beta's edges, last edge first, to the
    positions of beta r, and through those of alpha's edges to alpha r,
    so a term costs O((|alpha| + |beta|) |domain|) and builds no path.
    Each monomial is checked once, which also gives its range, and each
    edge's map is read from the representation's table by its ``EdgeRef``.
    """
    g = R.graph
    maps = R._maps

    def through(path: Path, positions: list[int]) -> list[int]:
        for ref in reversed(path.edges):
            s = maps["s", ref]
            positions = [s[i] for i in positions]
        return positions

    zero = Fraction(0)
    n = len(R.basis)
    rows = [[zero] * n for _ in range(n)]
    for m, c in x.terms:
        v = _check_monomial(g, m)
        if not isinstance(c, Fraction):
            c = Fraction(c)
        domain = list(maps["p", v])
        for i, j in zip(through(m.alpha, domain), through(m.beta, domain)):
            row = rows[i]
            # an entry still holding the shared zero takes c without an addition
            row[j] = c if row[j] is zero else row[j] + c
    return tuple(map(tuple, rows))


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


def _block_moves(R: BoundaryRepresentation, c: int):
    """Each (argument, image) pair of a generator at the positions of block ``c`` it acts on.

    The maps and positions are those recorded at construction, and each
    image is read from the map as it is now (changed in place, not replaced),
    so a block costs O(entries in the block) however many other blocks its
    generators reach.
    """
    for m, positions in R._acting[c].values():
        for j in positions:
            if j in m:
                yield j, m[j]


def _one_orbit(R: BoundaryRepresentation, c: int) -> bool:
    """True iff the first vector x of block ``c`` reaches the whole block and all of it reaches x.

    Generators map basis vectors to basis vectors (or zero), so the orbit
    of a vector is a set of basis vectors; every orbit is the block iff
    the orbit of x is the block and every vector of the block reaches x
    (then each reaches the block through x, and no further).  So one walk
    forward and one backward from x decide in O(n + moves).  The walks
    follow only the moves of ``_block_moves``: while none leaves the
    block, the others never meet an orbit, and once one leaves, the
    forward walk meets a vector outside.
    """
    block = R.classes[c]
    moves, back = defaultdict(list), defaultdict(list)
    for j, i in _block_moves(R, c):
        moves[j].append(i)
        back[i].append(j)
    x = block[:1]
    return set(_postorder(moves, x)) == set(block) and len(_postorder(back, x)) == len(block)


def verify_irreducible_block(
    R: BoundaryRepresentation, block_index: int
) -> tuple[bool, dict[Path, tuple[Path, ...]]]:
    """Orbit test for irreducibility of one block.

    For every basis vector of the block, the smallest invariant subspace
    containing it must be the whole block.  Since generators map basis
    vectors to basis vectors (or zero), that subspace is spanned by the
    orbit of the starting vector, which the certificate records.  The
    two walks of ``_one_orbit`` decide; only a failing block pays for the
    orbit of every start, under every generator.
    """
    block = R._block(block_index)
    basis = R.basis
    if _one_orbit(R, block_index):
        whole = tuple(basis[i] for i in block)
        return True, dict.fromkeys(whole, whole)
    every = defaultdict(list)
    for m in R._maps.values():
        for j, i in m.items():
            every[j].append(i)
    # the basis is sorted by path_key, so positions sort the same way
    return False, {
        basis[start]: tuple(basis[i] for i in sorted(_postorder(every, (start,))))
        for start in block
    }


def hom_space_dim(R: BoundaryRepresentation, a: int, b: int) -> int:
    """Dimension of the intertwiner space between blocks ``a`` and ``b``: 1 if a == b, else 0.

    Schur's lemma, with its hypotheses checked on R's maps.  Let x be the
    first position of block a, the vertex path of its sink t (length 0
    sorts first), and P = p_t.  The hypotheses are:

    (i) P acts on block a as {x: x};
    (ii) block a passes the two walks of ``_one_orbit``, so every y in a
         is w x for a word w in the generators;
    (iii) if b != a, P has no entry in block b.

    Let T be an intertwiner from a to b.  Then T x = T P x = P T x, which
    lies in span(x) when b = a, by (i), and is 0 otherwise, by (iii); and
    T y = T w x = w T x, so T is fixed by T x.  The dimension is therefore
    at most 1 when b = a, where the identity intertwines because no
    generator leaves a, and 0 otherwise.  The boundary-path representation
    meets all three: t is a sink, so x is the only basis path starting at
    t, and every block is one orbit.

    Reads the generators' maps at the positions of blocks a and b, as
    ``_block_moves`` gives them, and P.  Raises InternalInvariantError for
    a generator that leaves block a or b, and naming the hypothesis that
    fails.
    """
    A = R._block(a)
    R._block(b)  # refuses an unknown b
    class_of = R.class_of
    for c in {a, b}:
        if any(class_of[i] != c for _, i in _block_moves(R, c)):
            raise InternalInvariantError("generator leaves a block")
    x = A[0]
    t = R.graph.path_range(R.basis[x])
    P = R._maps["p", t]
    if {j: i for j, i in P.items() if class_of[j] == a} != {x: x}:
        p_t = R._label(("p", t))
        raise InternalInvariantError(f"{p_t} does not project block {a} onto its sink path")
    if not _one_orbit(R, a):
        raise InternalInvariantError(f"block {a} is not one orbit")
    if b != a and any(class_of[j] == b for j in P):
        raise InternalInvariantError(f"{R._label(('p', t))} has an entry in block {b}")
    return 1 if a == b else 0


# -- matrix units ----------------------------------------------------------


@dataclass(frozen=True)
class MatrixUnitSystem:
    """Matrix units e_{alpha,beta} indexed by the entry paths of a line point.

    ``lam`` lists the index set: the line vertices (as length-0 paths)
    followed by the paths entering the line from outside; ``at[i]`` is
    the line position where lam[i] ends.  Each unit is a single monomial,
    built on demand by ``monomial_of``.
    """

    line: tuple[str, ...]
    line_edges: tuple[EdgeRef, ...]
    lam: tuple[Path, ...]
    at: tuple[int, ...]

    def unit(self, i: int, j: int) -> AlgebraElement:
        # a single term with coefficient one is already in normal form
        return AlgebraElement(((monomial_of(self, i, j), Fraction(1)),))


def monomial_of(sys: MatrixUnitSystem, i: int, j: int) -> Monomial:
    """The monomial of unit (i, j), by the construction's shape.

    For lam_i, lam_j ending at line positions a <= b it is
    s_(lam_i mu) s_lam_j* with mu the line path from a to b; for a > b
    it is the adjoint shape s_lam_i s_(lam_j mu)*.
    """
    a, b = sys.at[i], sys.at[j]
    alpha, beta = sys.lam[i], sys.lam[j]
    if a < b:
        alpha = concat(alpha, Path(edges=sys.line_edges[a:b]))
    elif a > b:
        beta = concat(beta, Path(edges=sys.line_edges[b:a]))
    return Monomial(alpha, beta)


def lambda_index_set(g: Graph, v: str) -> tuple:
    """The line through ``v``, its edges and the index set of its matrix units.

    The index set contains one length-0 path per line vertex plus, in
    ``path_key`` order, every path whose last edge enters the line from
    outside (no shorter prefix already ends on the line).  Raises when the
    set is infinite.
    """
    chain, edges = line_through(g, v)
    return chain, edges, tuple(map(vertex_path, chain)) + entry_paths(g, chain, "the line")


def lambda_texts(g: Graph, v: str) -> tuple[str, ...]:
    """The texts of ``lambda_index_set``'s index set, as ``render_path`` gives them.

    Lists text rows only: no member is built as a path.
    """
    chain, _ = line_through(g, v)
    return (*chain, *_rows(g, (), _entry_exits(g, set(chain), "the line"), _text_head, ""))


def lambda_size(g: Graph, v: str) -> int | None:
    """|Lambda| for the line point ``v``; None when countably infinite."""
    chain, _ = line_through(g, v)
    entries = count_entry_paths(g, chain)
    return None if entries is None else len(chain) + entries


def matrix_units(g: Graph, v: str) -> MatrixUnitSystem:
    """Build and verify the matrix units of the ideal generated by a line point.

    The units are the monomials of ``monomial_of``; ``_verify_units``
    certifies e_ij* = e_ji and e_ij e_kl = delta_jk e_il before the
    system is returned.
    """
    chain, edges, lam = lambda_index_set(g, v)
    return MatrixUnitSystem(chain, edges, lam, _verify_units(g, chain, edges, lam))


def _verify_units(g: Graph, chain, edges, lam) -> tuple[int, ...]:
    """Certify that the construction's monomials over ``lam`` are matrix units.

    ``chain`` and ``edges`` are the line w_0 -> ... -> w_(k-1) and
    ``lam`` the index set with the line vertices first.  Returns the line
    position of each member.  The checks cost O(|line|) plus
    O(|lam| log |lam|) comparisons of paths:

    (L) the line vertices are distinct, each w_p with p < k-1 emits
        exactly one edge, ``edges[p]``, which lands on w_(p+1), and
        w_(k-1) is a sink;
    (a) the members of ``lam`` are pairwise incomparable (neither is a
        prefix of the other).  Sorted by source and then edges, a
        path sorts before its extensions and everything between them
        extends it too, so a comparable pair exists iff two neighbours
        are comparable;
    (b) every member ends on the line, and not in a line edge.

    Why this is the whole delta rule.  Write L[a:m] for the line path
    from w_a to w_m (the vertex w_a when a = m) and a_i for the position
    of lam_i.  Unit (i, j) is s_(lam_i L[a_i:m]) s_(lam_j L[a_j:m])* with
    m = max(a_i, a_j), so e_ij* = e_ji holds by construction.  By (L)
    each line vertex but the last emits only its line edge e, so its
    summation relation reads p = s_e s_e*, and s_(x e) s_(y e)* = s_x s_y*
    contracts a shared line tail; the formula with any m >= max(a_i, a_j)
    is therefore e_ij too.  The right path of e_ij is lam_j x and the left
    path of e_kl is lam_k y for line paths x, y.  Their product is nonzero
    iff one of these is a prefix of the other, and then lam_j and lam_k
    are both prefixes of the longer path, hence comparable; so (a) makes
    every product with j != k vanish.  For j = k, x and y both run down
    the one line from w_(a_j), so the shorter is a prefix of the longer,
    and the product is s_(lam_i L[a_i:M]) s_(lam_l L[a_l:M])* with M the
    furthest of the three positions, which is e_il.  Contracting its
    shared tail one line edge at a time, as the exhaustive check does,
    stops exactly at e_il: at max(a_i, a_l) one side is lam_i or lam_l
    itself, which by (b) does not end in a line edge.  Conversely a
    comparable pair lam_j, lam_k gives a nonzero e_jj e_kk, a member
    nu e ending in a line edge makes e_ii e_ii contract past it, and
    without (L) the contraction is not a relation of the algebra.  So
    this check and the exhaustive |lam|^4 one give the same verdict.

    Raises InternalInvariantError naming the first failure.
    """
    k = len(chain)
    pos = {w: p for p, w in enumerate(chain)}
    if len(pos) != k or len(edges) != k - 1:
        raise InternalInvariantError("the line repeats a vertex or miscounts its edges")
    for p, w in enumerate(chain[:-1]):
        out = g.out_bundles(w)
        if (
            len(out) != 1
            or out[0].multiplicity != 1
            or EdgeRef(out[0].name, 0) != edges[p]
            or out[0].range != chain[p + 1]
        ):
            raise InternalInvariantError(
                f"line vertex {w!r} does not emit exactly one edge, to {chain[p + 1]!r}"
            )
    if g.out_bundles(chain[-1]):
        raise InternalInvariantError(f"the line ends at {chain[-1]!r}, which is not a sink")
    if lam[:k] != tuple(vertex_path(w) for w in chain):
        raise InternalInvariantError("the index set does not start with the line")
    line_edges = set(edges)
    at = []
    for i, p in enumerate(lam):
        if p.length and p.edges[-1] in line_edges:
            raise InternalInvariantError(f"index path {i} ends in a line edge")
        a = pos.get(g.path_range(p))
        if a is None:
            raise InternalInvariantError(f"index path {i} does not end on the line")
        at.append(a)
    key = [(g.path_source(p), p.edges) for p in lam]
    order = sorted(range(len(lam)), key=key.__getitem__)
    for i, j in zip(order, order[1:]):
        (s, x), (t, y) = key[i], key[j]
        if s == t and y[: len(x)] == x:
            raise InternalInvariantError(
                f"unit product ({i},{i})({j},{j}) should vanish: index paths are comparable"
            )
    return tuple(at)


def naimark_isomorphism(g: Graph, v: str) -> MatrixUnitSystem:
    """Matrix units realizing the whole algebra for a witnessing line point.

    Requires that the saturation of the line point's tree is every
    vertex.  The sink basis is then {s_alpha s_beta*} over pairs of
    paths into the one sink, and the rewrite into unit coordinates is
    certified without listing them, in the time of ``_verify_units``:
    the algebra dimension is |Lambda|^2, the end of the line is the only
    sink, and ``_verify_units`` passes on the returned system and gives
    back its line positions ``at``.

    Why this is enough.  The members of Lambda are pairwise incomparable
    and lam_c ends on the line at a_c = at[c], so c -> lam_c L[a_c:]
    (L[a:] the line path from w_a to the end) maps Lambda into the paths
    into the sink, injectively: two members with one image are prefixes
    of one path, hence comparable.  With one sink the dimension is
    count(end)^2, so there are |Lambda| such paths, and each, p, is
    lam_c L[a_c:] for exactly one c = c(p).  Contracting the shared line
    tail of s_alpha s_beta* then stops at unit (c(alpha), c(beta)), as in
    ``_verify_units``, so the rewrite is a bijection onto Lambda x Lambda.
    """
    if set(saturate(g, tree_of(g, v))) != set(g.vertices):
        raise ContractError(
            f"line point {v!r} does not witness the uniqueness condition"
        )
    sys = matrix_units(g, v)
    n = len(sys.lam)
    if dimension(g) != n * n:
        raise InternalInvariantError("algebra dimension differs from |Lambda|^2")
    if singular_vertices(g) != (sys.line[-1],):
        raise InternalInvariantError("the end of the line is not the only sink")
    if _verify_units(g, sys.line, sys.line_edges, sys.lam) != sys.at:
        raise InternalInvariantError("a sink path does not run from Lambda down the line")
    return sys
