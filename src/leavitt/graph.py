"""Finitely presented directed multigraphs.

A graph is an ordered list of vertices plus an ordered list of edge
*bundles*.  A bundle groups parallel edges sharing one source vertex and
one range vertex; its multiplicity is a positive integer or ``OMEGA``
(countably many parallel edges, which is how infinite emitters are
presented finitely).  Individual edges are addressed as
``EdgeRef(bundle_name, index)``.

Vertices are classified as sinks (no outgoing edge), infinite emitters
(some outgoing bundle has multiplicity ``OMEGA``) or regular vertices.
Sinks and infinite emitters together are the singular vertices.

All set-valued results are returned as tuples ordered by the graph's
declared vertex (or bundle) order, so every operation is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress, product, takewhile
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    ContractError,
    GraphError,
    NotFinitelyPresentableError,
    UnknownNameError,
)

class _Omega:
    """Singleton multiplicity marker for countably infinite bundles."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()

# A bundle multiplicity: a positive int, or OMEGA.
Multiplicity = int | _Omega


def is_omega(m: Multiplicity) -> bool:
    return m is OMEGA


class Bundle(NamedTuple):
    """A bundle of parallel edges from ``source`` to ``range``."""

    name: str
    source: str
    range: str
    multiplicity: Multiplicity = 1


class EdgeRef(NamedTuple):
    """One concrete edge: position ``index`` inside bundle ``bundle``.

    As a tuple it compares and hashes as the pair (bundle name, index).
    """

    bundle: str
    index: int = 0


# A NamedTuple may not override __new__, so Path checks its fields in a subclass.
class _PathFields(NamedTuple):
    vertex: str | None
    edges: tuple[EdgeRef, ...]


class Path(_PathFields):
    """A finite path: either a single vertex or a nonempty edge sequence.

    A length-0 path stores its vertex in ``vertex``; a path of positive
    length stores only its edges (the endpoint vertices are recovered
    through the graph).
    """

    __slots__ = ()

    def __new__(cls, vertex: str | None = None, edges: tuple[EdgeRef, ...] = ()):
        if (vertex is None) == (len(edges) == 0):
            raise ContractError("a path is a vertex or a nonempty edge sequence, not both")
        return tuple.__new__(cls, (vertex, edges))

    @classmethod
    def _make(cls, iterable) -> Path:  # _replace builds through _make
        return cls(*iterable)

    @property
    def length(self) -> int:
        return len(self.edges)


def vertex_path(v: str) -> Path:
    return Path(vertex=v)


def path_key(p: Path) -> tuple:
    """Deterministic sort key: length, then the edges, each as (name, index).

    Length-0 paths compare by vertex name.
    """
    return (len(p.edges), p.edges or p.vertex)


def concat(p: Path, q: Path) -> Path:
    """Concatenate two composable paths (composability is not re-checked)."""
    if p.length == 0:
        return q
    if q.length == 0:
        return p
    return Path(edges=p.edges + q.edges)


def strip_prefix(g: "Graph", p: Path, q: Path) -> Path:
    """The remainder of ``p`` after its prefix ``q``."""
    if p.length == q.length:
        return vertex_path(g.path_range(p))
    return Path(edges=p.edges[q.length :])


class VertexClass(enum.Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite-emitter"


def _collection(value, what: str, error: type) -> None:
    """Raise ``error`` with ``what`` unless ``value`` is a collection; a bare string is not one."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        kind = "the string " if isinstance(value, str) else ""
        raise error(f"{what}, not {kind}{value!r}")


@dataclass(frozen=True)
class Graph:
    """An immutable finitely presented directed multigraph.

    Construction validates the presentation, stores ``vertices`` and
    ``bundles`` as tuples and, in the same pass, builds every table the
    queries read.  Inside, a vertex is its position in ``vertices``: only
    ``_position`` and ``_bundle_at`` are keyed by name, and every other
    table is a list indexed by position or holds positions.  They are the
    bundles leaving and entering each vertex in declared order, each
    paired with the position at its other end, the vertex classes, the
    walk order along successors (each vertex after its successors, except
    on a cycle), the strongly connected component of each vertex, the
    vertices on cycles, the doubled components and the path counts.  The
    tables sit in the instance ``__dict__``, as do the class census and
    the listed admissible sets once a query has derived them; equality,
    hashing and ``repr`` depend only on ``vertices`` and ``bundles``.
    """

    vertices: tuple[str, ...]
    bundles: tuple[Bundle, ...] = ()

    def __post_init__(self):
        for field, what in (("vertices", "names"), ("bundles", "Bundle values")):
            value = getattr(self, field)
            if type(value) is not tuple:
                _collection(value, f"{field} must be a collection of {what}", GraphError)
                object.__setattr__(self, field, tuple(value))
        position = {}
        for i, v in enumerate(self.vertices):
            if not (isinstance(v, str) and v.isascii() and v.isidentifier()):
                raise GraphError(f"invalid vertex name {v!r}")
            if v in position:
                raise GraphError(f"duplicate vertex name {v!r}")
            position[v] = i
        n = len(self.vertices)
        bundle_at, classes = {}, [VertexClass.SINK] * n
        out, into = [[] for _ in range(n)], [[] for _ in range(n)]
        for j, b in enumerate(self.bundles):
            if not isinstance(b, Bundle):
                raise GraphError(f"bundle {j} is not a Bundle: {b!r}")
            name, m = b.name, b.multiplicity
            if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
                raise GraphError(f"invalid bundle name {name!r}")
            if name in bundle_at:
                raise GraphError(f"duplicate bundle name {name!r}")
            bundle_at[name] = j
            s = position.get(b.source) if isinstance(b.source, str) else None
            if s is None:
                raise GraphError(f"bundle {name!r}: unknown source {b.source!r}")
            r = position.get(b.range) if isinstance(b.range, str) else None
            if r is None:
                raise GraphError(f"bundle {name!r}: unknown range {b.range!r}")
            if m is OMEGA:
                classes[s] = VertexClass.INFINITE_EMITTER
            elif not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise GraphError(
                    f"bundle {name!r}: multiplicity must be a positive integer or omega"
                )
            elif classes[s] is VertexClass.SINK:
                classes[s] = VertexClass.REGULAR
            out[s].append((b, r))
            into[r].append((b, s))
        order, comp_of = _components(out, into)
        # A strongly connected component of n vertices has at least n internal
        # edges (counted with multiplicity) when it is nontrivial, and a trivial
        # one has an internal edge iff its vertex has a loop: so the vertices
        # on cycles are those of components with an internal edge.  With
        # exactly n, every vertex emits one edge inside it, so it is a lone
        # cycle; with more, some vertex emits two, and each closes a different
        # cycle.  An omega bundle counts as two edges.
        internal, size = [0] * n, [0] * n
        for u, c in enumerate(comp_of):
            size[c] += 1
            for b, w in out[u]:
                if comp_of[w] == c:
                    internal[c] += 2 if b.multiplicity is OMEGA else b.multiplicity
        cyclic = frozenset(v for v, c in enumerate(comp_of) if internal[c])
        # A depth-first walk finishes the range of an edge between two
        # components before its source, which the range cannot reach; so,
        # reversed, the walk order lists a vertex off every cycle after the
        # sources of its incoming bundles.  None counts infinitely many
        # paths, and a vertex on a cycle has them.
        count = [None] * n
        for v in reversed(order):
            heads = None if v in cyclic else _count_through(count, into[v])
            count[v] = None if heads is None else 1 + heads
        self.__dict__.update(
            _order=order,
            _position=position,
            _bundle_at=bundle_at,
            _out=out,
            _into=into,
            _classes=classes,
            _comp_of=comp_of,
            _cyclic=cyclic,
            _doubled=frozenset(c for c, k in enumerate(internal) if k > size[c]),
            _path_counts=count,
        )

    # -- lookups ---------------------------------------------------------

    def vertex_index(self, v: str) -> int:
        try:
            return self._position[v]
        except (KeyError, TypeError):
            raise UnknownNameError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        try:
            return v in self._position
        except TypeError:
            return False

    def bundle(self, name: str) -> Bundle:
        try:
            return self.bundles[self._bundle_at[name]]
        except (KeyError, TypeError):
            raise UnknownNameError(f"unknown bundle {name!r}") from None

    def out_bundles(self, v: str) -> tuple[Bundle, ...]:
        return tuple(b for b, _ in self._out[self.vertex_index(v)])

    def in_bundles(self, v: str) -> tuple[Bundle, ...]:
        return tuple(b for b, _ in self._into[self.vertex_index(v)])

    # -- edges and paths -------------------------------------------------

    def check_edge(self, ref: EdgeRef) -> None:
        self._checked_bundle(ref)

    def _checked_bundle(self, ref: EdgeRef) -> Bundle:
        """The bundle of ``ref``, after checking that it names one of its edges."""
        b = self.bundle(ref.bundle)
        if not isinstance(ref.index, int) or isinstance(ref.index, bool):
            raise ContractError(f"edge index must be an int: {ref}")
        if ref.index < 0:
            raise ContractError(f"edge index must be nonnegative: {ref}")
        if b.multiplicity is not OMEGA and ref.index >= b.multiplicity:
            raise ContractError(
                f"edge index {ref.index} out of range for bundle {b.name!r} "
                f"of multiplicity {b.multiplicity}"
            )
        return b

    def source_of(self, ref: EdgeRef) -> str:
        return self.bundle(ref.bundle).source

    def range_of(self, ref: EdgeRef) -> str:
        return self.bundle(ref.bundle).range

    def edge(self, bundle: str, index: int = 0) -> EdgeRef:
        ref = EdgeRef(bundle, index)
        self.check_edge(ref)
        return ref

    def edge_refs(self) -> tuple[EdgeRef, ...]:
        """All concrete edges, in bundle order; requires finite multiplicities."""
        refs = []
        for b in self.bundles:
            if is_omega(b.multiplicity):
                raise NotFinitelyPresentableError(
                    f"bundle {b.name!r} has multiplicity omega; its edges cannot be listed"
                )
            refs.extend(EdgeRef(b.name, i) for i in range(b.multiplicity))
        return tuple(refs)

    def vertex_path(self, v: str) -> Path:
        self.vertex_index(v)
        return vertex_path(v)

    def path(self, *atoms: str | EdgeRef | tuple[str, int]) -> Path:
        """Build a path from bundle names and (name, index) pairs, EdgeRefs included."""
        p = Path(edges=tuple(EdgeRef(*a) if isinstance(a, tuple) else EdgeRef(a) for a in atoms))
        self.check_path(p)
        return p

    def check_path(self, p: Path) -> None:
        """Check that ``p`` is a path of this graph.

        A vertex path must name a vertex.  Otherwise every edge is checked
        first, in order, as ``check_edge`` does; then each consecutive pair
        must compose.  Each edge's bundle is looked up once.
        """
        self._checked_range(p)

    def _checked_range(self, p: Path) -> str:
        """``check_path``, returning the range vertex of ``p``."""
        if not p.edges:
            self.vertex_index(p.vertex)
            return p.vertex
        kept = [self._checked_bundle(ref) for ref in p.edges]
        for i in range(1, len(kept)):
            if kept[i - 1].range != kept[i].source:
                raise ContractError(
                    f"edges {p.edges[i - 1]} and {p.edges[i]} do not compose: "
                    f"{kept[i - 1].range!r} != {kept[i].source!r}"
                )
        return kept[-1].range

    def path_source(self, p: Path) -> str:
        return p.vertex if p.length == 0 else self.source_of(p.edges[0])

    def path_range(self, p: Path) -> str:
        return p.vertex if p.length == 0 else self.range_of(p.edges[-1])


def render_edge_ref(g: Graph, ref: EdgeRef) -> str:
    """``bundle#index``, with ``#0`` elided for multiplicity-1 bundles (``_text_head``)."""
    return _text_head(g.bundle(ref.bundle), ref.index)


def render_path(g: Graph, p: Path) -> str:
    if p.length == 0:
        return p.vertex
    return "".join(render_edge_ref(g, e) for e in p.edges)


# -- vertex classification ----------------------------------------------


def classify_vertex(g: Graph, v: str) -> VertexClass:
    return g._classes[g.vertex_index(v)]


def is_singular(g: Graph, v: str) -> bool:
    return classify_vertex(g, v) is not VertexClass.REGULAR


def singular_vertices(g: Graph) -> tuple[str, ...]:
    return tuple(map(g.vertices.__getitem__, _singular(g)))


def _singular(g: Graph) -> list[int]:
    """The positions of the singular vertices, in declared order."""
    regular = VertexClass.REGULAR
    return [i for i, c in enumerate(g._classes) if c is not regular]


def out_degree(g: Graph, v: str) -> Multiplicity:
    """Total number of edges emitted by ``v`` (OMEGA if any bundle is infinite)."""
    total = 0
    for b in g.out_bundles(v):
        if is_omega(b.multiplicity):
            return OMEGA
        total += b.multiplicity
    return total


# -- reachability ------------------------------------------------------

_second = itemgetter(1)


def _postorder(adj, roots) -> list[int]:
    """Positions reachable from ``roots`` along ``adj``, roots included.

    ``adj`` maps a position to (label, neighbour) pairs, as ``Graph._out``
    maps a vertex to (bundle, range) and ``Graph._into`` to (bundle, source).

    Each position is listed after every neighbour, except one still open
    on the walk, which happens only on a cycle; so where no cycle is
    reached the order is children first.  Iterative: no recursion-depth
    ceiling.
    """
    order = []
    seen = set()
    stack = [(None, iter(roots))]  # a virtual vertex over the roots, listed last
    while stack:
        u, it = stack[-1]
        for w in it:
            if w not in seen:
                seen.add(w)
                stack.append((w, map(_second, adj[w])))
                break
        else:
            stack.pop()
            order.append(u)
    return order[:-1]


def _components(out: list, into: list) -> tuple[list[int], list[int]]:
    """The walk order along ``out`` and the strongly connected component of each position.

    Kosaraju-Sharir: taken in reverse walk order along successors, a
    vertex not yet placed lies in a component that no unplaced vertex
    outside it reaches, so the unplaced vertices reaching it along
    predecessors are exactly its component.  One walk along predecessors
    from those roots in that order lists each component as one run ending
    at its root.  The components are numbered by first vertex, as
    ``strongly_connected_components`` lists them.
    """
    order = _postorder(out, range(len(out)))
    walk, root = iter(_postorder(into, order[::-1])), [None] * len(out)
    for r in reversed(order):
        if root[r] is None:
            for w in (*takewhile(r.__ne__, walk), r):  # the run of the walk ending at r
                root[w] = r
    number = {}  # each root's component
    return order, [number.setdefault(r, len(number)) for r in root]


def tree_of(g: Graph, v: str) -> tuple[str, ...]:
    """All vertices reachable from ``v`` (including ``v``), in declared order."""
    return _ordered(g, _postorder(g._out, (g.vertex_index(v),)))


def _ordered(g: Graph, ps) -> tuple[str, ...]:
    """The vertices at the positions ``ps``, in declared order."""
    return tuple(map(g.vertices.__getitem__, sorted(ps)))


def _check_subset(g: Graph, hs) -> set[int]:
    """The positions of the vertex set ``hs``: the one place a vertex set's names become them.

    ``vertex_index`` refuses an unknown or unhashable member.
    """
    _collection(hs, "a vertex set must be a collection of names", ContractError)
    return {g.vertex_index(v) for v in hs}


def _known_subset(g: Graph, hs) -> set[int] | None:
    """``_check_subset`` of ``hs``, or None if a member is a hashable name of no vertex.

    A caller that accepts only certain vertices refuses such a name as it
    refuses any other vertex outside them.  If a member is unhashable,
    ``hs`` is refused as ``_check_subset`` refuses it.
    """
    try:
        return _check_subset(g, hs)
    except UnknownNameError as unknown:
        try:
            set(hs)
        except TypeError:  # an unhashable member names nothing at all
            raise unknown from None
        return None


def is_hereditary(g: Graph, h) -> bool:
    """True iff every edge with source in ``h`` has range in ``h``."""
    return _hereditary(g, _check_subset(g, h))


def _hereditary(g: Graph, hs) -> bool:
    """``is_hereditary`` of a set of positions."""
    out = g._out
    return all(w in hs for v in hs for _, w in out[v])


def is_saturated(g: Graph, h) -> bool:
    """True iff every regular vertex whose outgoing ranges all lie in ``h`` is in ``h``."""
    return _saturated(g, _check_subset(g, h))


def _saturated(g: Graph, hs) -> bool:
    """``is_saturated`` of a set of positions."""
    out, regular = g._out, VertexClass.REGULAR
    return not any(
        c is regular and v not in hs and all(w in hs for _, w in out[v])
        for v, c in enumerate(g._classes)
    )


def _joining_rounds(g: Graph, h) -> dict[int, int]:
    """``_rounds`` of ``h``, after checking that it is a hereditary vertex set."""
    hs = _check_subset(g, h)
    if not _hereditary(g, hs):
        raise ContractError("saturation requires a hereditary set")
    return _rounds(g, hs)


def _rounds(g: Graph, hs) -> dict[int, int]:
    """Each position in the saturation of the hereditary set ``hs`` -> the round it joins.

    A round adjoins each regular vertex whose edges all land in the set so
    far: ``hs`` joins in round 0, a regular vertex one round after its
    last successor.  The set stays hereditary, so a vertex on a cycle never
    joins: its successor on the cycle would join first, and reaches it.
    Off every cycle a vertex comes after all its successors in the walk
    order, so one pass over it finds every round: O(n + m).
    """
    out, cyclic, classes, regular = g._out, g._cyclic, g._classes, VertexClass.REGULAR
    rounds = {}
    for v in g._order:
        if v in hs:
            rounds[v] = 0
        elif classes[v] is regular and v not in cyclic and all(w in rounds for _, w in out[v]):
            rounds[v] = 1 + max(rounds[w] for _, w in out[v])
    return rounds


def saturation_stages(g: Graph, h) -> list[tuple[str, ...]]:
    """Fixed-point stages H0 <= H1 <= ... of the saturation of a hereditary set.

    Each round adjoins every regular vertex all of whose outgoing edges
    land in the previous stage.  The last stage is the saturation.
    """
    member, stages = [False] * len(g.vertices), []
    for k, i in sorted((k, i) for i, k in _joining_rounds(g, h).items()):
        if k > len(stages):  # rounds run 0, 1, ...: the first of round k closes stage k - 1
            stages.append(tuple(compress(g.vertices, member)))
        member[i] = True
    return stages + [tuple(compress(g.vertices, member))]


def saturate(g: Graph, h) -> tuple[str, ...]:
    """Smallest saturated set containing the hereditary set ``h``."""
    return _ordered(g, _joining_rounds(g, h))


def breaking_vertices(g: Graph, h) -> tuple[str, ...]:
    """Singular vertices with finitely many (but at least one) edges escaping ``h``.

    ``h`` must be saturated hereditary.  Only infinite emitters can
    qualify: a sink emits nothing, an emitter inside the hereditary ``h``
    emits nothing out of it, and one with an omega bundle into the
    complement has infinitely many escaping edges.
    """
    hs = _check_subset(g, h)
    if not _hereditary(g, hs) or not _saturated(g, hs):
        raise ContractError("breaking vertices are defined for saturated hereditary sets")
    return _ordered(g, _breaking_vertices(g, hs))


def _breaking_vertices(g: Graph, hs) -> list[int]:
    """``breaking_vertices`` of a set of positions, as positions in declared order."""
    emitter = VertexClass.INFINITE_EMITTER
    return [
        v
        for v, c in enumerate(g._classes)
        if c is emitter
        and (bs := _escaping(g, hs, v))
        and not any(is_omega(b.multiplicity) for b in bs)
    ]


def _escaping(g: Graph, hs, v: int) -> list[Bundle]:
    """The bundles from the position ``v`` whose range lies outside the position set ``hs``."""
    return [b for b, w in g._out[v] if w not in hs]


def escaping_edges(g: Graph, h, v: str) -> tuple[EdgeRef, ...]:
    """The concrete edges from ``v`` whose range lies outside ``h``."""
    hs = _check_subset(g, h)
    refs = []
    for b in _escaping(g, hs, g.vertex_index(v)):
        if is_omega(b.multiplicity):
            raise NotFinitelyPresentableError(
                f"bundle {b.name!r} escapes {sorted(_ordered(g, hs))} with multiplicity omega"
            )
        refs.extend(EdgeRef(b.name, i) for i in range(b.multiplicity))
    return tuple(refs)


def downward_directed(g: Graph) -> bool:
    """True iff any two vertices have a common descendant (paths may be trivial).

    Every vertex reaches a terminal strongly connected component (one no
    edge leaves), and two terminal components share no descendant, so
    this holds iff there is at most one terminal component: O(n + m).
    """
    comp = g._comp_of
    left = {comp[u] for u, es in enumerate(g._out) for _, w in es if comp[w] != comp[u]}
    return len(set(comp)) - len(left) <= 1


# -- strongly connected components and cycles ---------------------------


def strongly_connected_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """SCC partition, each component ordered, components by first vertex.

    Read off each vertex's component, found when the graph is built.
    """
    members = {}  # components are numbered by first vertex
    for v, c in zip(g.vertices, g._comp_of):
        members.setdefault(c, []).append(v)
    return tuple(map(tuple, members.values()))


def vertices_on_cycles(g: Graph) -> tuple[str, ...]:
    """Vertices lying on at least one cycle."""
    return _ordered(g, g._cyclic)


def has_cycle(g: Graph) -> bool:
    return bool(g._cyclic)


def bundle_circuits(g: Graph) -> tuple[tuple[Bundle, ...], ...]:
    """Elementary circuits at bundle level (no vertex repeated), up to rotation.

    Each circuit is anchored at its smallest-index vertex, so every
    rotation class appears exactly once.  Parallel edges within a bundle
    are not expanded here.  A circuit stays inside one strongly connected
    component, so the walks start on cycles and stay in their component.
    A component without two distinct simple cycles is a lone cycle,
    anchored at its first vertex, so only that vertex starts a walk there:
    a graph of lone cycles costs O(n + m).  Exponential in general.
    """
    out, comp = g._out, g._comp_of
    circuits, anchored = [], set()
    for s in sorted(g._cyclic):
        if comp[s] in anchored and comp[s] not in g._doubled:
            continue
        anchored.add(comp[s])
        # the walk's stack: each vertex of the chain, the bundle into it, its bundles left
        visited, work = {s}, [(s, None, iter(out[s]))]
        while work:
            for b, w in work[-1][2]:
                if w == s:
                    circuits.append((*(e for _, e, _ in work[1:]), b))
                elif comp[w] == comp[s] and w > s and w not in visited:
                    visited.add(w)
                    work.append((w, b, iter(out[w])))
                    break
            else:
                visited.discard(work.pop()[0])
    return tuple(circuits)


def _least_rotation(cycle: tuple[EdgeRef, ...]) -> tuple[EdgeRef, ...]:
    # The edges of a simple cycle leave distinct vertices, so they differ,
    # and the least rotation starts at the least edge.
    best = cycle.index(min(cycle))
    return cycle[best:] + cycle[:best]


def simple_cycles(g: Graph) -> tuple[tuple[EdgeRef, ...], ...]:
    """Every simple cycle once, as its lexicographically least rotation.

    Simple means no vertex repeats.  Parallel edges inside one bundle
    count as distinct edges, so a circuit through a bundle of multiplicity
    m is reported m times (once per index).  A circuit through an omega
    bundle would yield infinitely many cycles and is refused.
    """
    cycles = set()
    for circuit in bundle_circuits(g):
        for b in circuit:
            if is_omega(b.multiplicity):
                raise NotFinitelyPresentableError(
                    f"bundle {b.name!r} has multiplicity omega and lies on a cycle; "
                    "the simple cycles cannot be listed"
                )
        for choice in product(*(range(b.multiplicity) for b in circuit)):
            refs = tuple(EdgeRef(b.name, i) for b, i in zip(circuit, choice))
            cycles.add(_least_rotation(refs))
    return tuple(sorted(cycles, key=lambda c: (len(c), c)))


# -- line points ---------------------------------------------------------


def line_points(g: Graph) -> tuple[str, ...]:
    """Vertices whose reachability tree is a simple line.

    ``v`` is a line point iff no vertex reachable from it emits two or
    more edges (counting bundle multiplicities; omega counts as two or
    more) and no reachable vertex lies on a cycle.  Every sink is a line
    point.  Equivalently, ``v`` is not on a cycle, emits at most one edge,
    and its successor, if any, is a line point: one children-first pass
    decides every vertex in linear time.
    """
    cyclic, out = g._cyclic, g._out
    verdict = [False] * len(g.vertices)
    # a vertex off every cycle is listed after its successor
    for v in g._order:
        es = out[v]
        verdict[v] = not es or (
            v not in cyclic and len(es) == 1 and es[0][0].multiplicity == 1 and verdict[es[0][1]]
        )
    return tuple(compress(g.vertices, verdict))


def line_through(g: Graph, v: str) -> tuple[tuple[str, ...], tuple[EdgeRef, ...]]:
    """The vertex chain w0=v, w1, ... and its edges for a line point.

    Walks the line and refuses at the first vertex on a cycle or emitting
    two or more edges; off every cycle no vertex comes back, so the walk
    ends at a sink after at most n steps.
    """
    i = g.vertex_index(v)
    chain, edges = [v], []
    while es := g._out[i]:
        if i in g._cyclic or len(es) > 1 or es[0][0].multiplicity != 1:
            raise ContractError(f"{v!r} is not a line point")
        b, i = es[0]
        edges.append(EdgeRef(b.name, 0))
        chain.append(b.range)
    return tuple(chain), tuple(edges)


# -- path counting -------------------------------------------------------


def _count_through(count: list, entries: list) -> int | None:
    """Sum of multiplicity x ``count[u]`` over (bundle, source u); None if a term is infinite."""
    if any(b.multiplicity is OMEGA or count[u] is None for b, u in entries):
        return None
    return sum(b.multiplicity * count[u] for b, u in entries)


def _paths_ending(g: Graph, stops, exits: dict) -> list[Path]:
    """Every path into a vertex at a position of ``stops`` or ending with an edge of ``exits``.

    ``exits`` maps a position to bundles leaving it, whose ancestry must be acyclic with
    finite multiplicities; a stop with infinitely many paths raises.  The paths come in
    ``path_key`` order.
    """
    rows = _rows(g, stops, exits, _edge_head, ())
    ends = map(vertex_path, sorted(_ordered(g, stops)))
    # an edge row is never empty, so it makes a valid path without Path's check
    return [*ends, *[tuple.__new__(Path, (None, e)) for e in rows]]


def _edge_head(b: Bundle, i: int) -> tuple[EdgeRef]:
    return (EdgeRef(b.name, i),)


def _text_head(b: Bundle, i: int) -> str:
    return b.name if i == 0 and b.multiplicity == 1 else f"{b.name}#{i}"


def _rows(g: Graph, stops, exits: dict, head, empty) -> list:
    """The rows (``_tails``) of the positive-length paths ``_paths_ending`` lists, in order."""
    for v in stops:
        if g._path_counts[v] is None:
            raise NotFinitelyPresentableError(
                f"infinitely many paths end at {g.vertices[v]!r} "
                "(a cycle or omega bundle feeds it)"
            )
    ancestors = _postorder(g._into, [*stops, *exits])
    # reversed, the order lists every ancestor after the ranges of its bundles
    _, firsts = _tails(g, reversed(ancestors), stops, exits, head, empty)
    return [row for rows in _joined(firsts) for row in rows]


def _tails(g: Graph, order, stops, exits: dict, head, empty) -> tuple[dict[int, list], list]:
    """Each position u of ``order`` -> the rows of its paths (``_rows``) by length; every step.

    A path's row is ``head(b, i)`` of its first edge, edge i of bundle b, plus the row of
    the rest; a vertex path's row is ``empty``.  Entry n holds the rows of u's paths of
    length n, in ``path_key`` order.  A step is a bundle that starts paths, with their
    rows by length from 1 (after an exit, the one-edge rows).  ``order`` lists each vertex
    after the ranges of its bundles that it lists at all; a range it leaves out has no
    paths.  Each row is built once.
    """
    out, stops = g._out, set(stops)
    tails, firsts = {}, []
    for u in order:
        steps = [(b, _extend(b, tails[w], head)) for b, w in out[u] if w in tails]
        steps += [(b, _extend(b, [[empty]], head)) for b in exits.get(u, ())]
        tails[u] = [[empty] if u in stops else []] + _joined(steps)
        firsts += steps
    return tails, firsts


def _extend(b: Bundle, after: list, head) -> list[list]:
    """The rows of the paths e p by length, e an edge of ``b`` and p a path of ``after``."""
    heads = [head(b, i) for i in range(b.multiplicity)]
    return [[h + t for h in heads for t in tails] for tails in after]


def _joined(steps) -> list[list]:
    """The rows of ``steps`` merged by length, each length in ``path_key`` order.

    Edges compare by (name, index), so sorting the steps by bundle name suffices.  One
    step's lists are returned as they are: no list of rows changes once it is made.
    """
    if len(steps) < 2:
        return steps[0][1] if steps else []
    steps.sort(key=lambda step: step[0].name)
    out = [[] for _ in range(max(len(made) for _, made in steps))]
    for _, made in steps:
        for rows, more in zip(out, made):
            rows += more
    return out


def count_paths_into(g: Graph, v: str) -> int | None:
    """Number of finite paths with range ``v`` (vertex path included).

    Returns None when the count is countably infinite, i.e. when a cycle
    passes through an ancestor of ``v`` or an omega bundle lands on one.
    """
    return g._path_counts[g.vertex_index(v)]


def paths_into(g: Graph, v: str) -> tuple[Path, ...]:
    """All finite paths with range ``v``, sorted by ``path_key``.

    Raises when the set is infinite (see ``count_paths_into``).
    """
    return tuple(_paths_ending(g, (g.vertex_index(v),), {}))


# -- paths entering a vertex set -------------------------------------------


def _entering(g: Graph, ts) -> list[tuple[Bundle, int]]:
    """Each bundle with range in the position set ``ts`` and source outside it, with its source.

    In declared bundle order.
    """
    found = [(b, u) for v in ts for b, u in g._into[v] if u not in ts]
    return sorted(found, key=lambda entry: g._bundle_at[entry[0].name])


def count_entry_paths(g: Graph, t) -> int | None:
    """Number of paths whose last edge enters the vertex set ``t`` from outside.

    Each is a path into the source of a bundle entering ``t`` followed by
    one edge of that bundle.  Returns None when the count is countably
    infinite: an omega bundle enters ``t`` or a cycle or omega bundle
    feeds one of those sources.
    """
    return _count_through(g._path_counts, _entering(g, _check_subset(g, t)))


def entry_paths(g: Graph, t, what: str) -> tuple[Path, ...]:
    """The paths counted by ``count_entry_paths``, sorted by ``path_key``.

    When they are infinitely many, raises NotFinitelyPresentableError
    naming a witness; ``what`` names ``t`` in that message.
    """
    exits = _entry_exits(g, _check_subset(g, t), what)
    return tuple(_paths_ending(g, (), exits)) if exits else ()


def _entry_exits(g: Graph, ts, what: str) -> dict[int, list[Bundle]]:
    """The ``exits`` that list ``entry_paths``: each source of a bundle entering ``ts`` -> those.

    ``ts`` is a set of positions, and so are the keys.
    """
    exits = {}
    for b, u in _entering(g, ts):
        if is_omega(b.multiplicity):
            reason = f"omega bundle {b.name!r} feeds {what} at {b.range!r}"
        elif g._path_counts[u] is not None:
            exits.setdefault(u, []).append(b)
            continue
        elif cyclic := g._cyclic.intersection(_postorder(g._into, (u,))):
            reason = f"a cycle through {min(_ordered(g, cyclic))!r} reaches {what}"
        else:
            reason = f"an omega bundle feeds the crossing edge {b.name!r}"
        raise NotFinitelyPresentableError(f"{reason}; infinitely many paths enter {what}")
    return exits
