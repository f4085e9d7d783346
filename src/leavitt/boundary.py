"""Boundary paths, the shift map, and shift-tail equivalence classes.

A boundary path is either a finite path ending at a singular vertex or an
infinite path.  Infinite paths of a finite graph that we can present
finitely are the eventually periodic ones, stored as a finite prefix plus
a repeating cycle.  The stored form is canonical: the cycle is primitive
(not a proper power of a shorter cycle) and the prefix is minimal (its
last edge never equals the cycle's last edge, which could otherwise be
absorbed by rotating the cycle).  With that normalization, structural
equality of ``BoundaryPath`` values is equality of the paths they denote.

Two boundary paths are shift-tail equivalent when some shifts of them
coincide.  Equivalence never holds across the finite/infinite divide;
finite boundary paths are equivalent iff they end at the same singular
vertex, and eventually periodic paths are equivalent iff their primitive
cycles are rotations of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .graph import (
    EdgeRef,
    Graph,
    Path,
    _least_rotation,
    count_entry_paths,
    count_paths_into,
    is_omega,
    is_singular,
    path_key,
    paths_into,
    render_edge_ref,
    render_path,
    strongly_connected_components,
    vertex_path,
)


@dataclass(frozen=True)
class BoundaryPath:
    """A finite singular path (cycle None) or an eventually periodic path.

    Values are assumed canonical; build them with ``boundary_path``.
    """

    prefix: Path
    cycle: tuple[EdgeRef, ...] | None = None


def _primitive_root(cycle: tuple[EdgeRef, ...]) -> tuple[EdgeRef, ...]:
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[p:] + cycle[:p]:
            return cycle[:p]
    return cycle


def boundary_path(g: Graph, prefix: Path, cycle=None) -> BoundaryPath:
    """Validate and normalize a boundary path.

    For a finite boundary path the prefix must end at a singular vertex.
    For an eventually periodic path the cycle must start where the prefix
    ends and close up; it is reduced to its primitive root and the prefix
    is shortened while its last edge coincides with the cycle's last edge
    (rotating the cycle to keep the denoted infinite path fixed).
    """
    g.check_path(prefix)
    if cycle is None:
        end = g.path_range(prefix)
        if not is_singular(g, end):
            raise ContractError(
                f"finite boundary paths must end at a singular vertex, not {end!r}"
            )
        return BoundaryPath(prefix, None)
    cycle = tuple(cycle)
    if not cycle:
        raise ContractError("a cycle must contain at least one edge")
    as_path = Path(edges=cycle)
    g.check_path(as_path)
    if g.path_source(as_path) != g.path_range(as_path):
        raise ContractError("cycle does not close up")
    if g.path_source(as_path) != g.path_range(prefix):
        raise ContractError("cycle must start where the prefix ends")
    cycle = _primitive_root(cycle)
    edges = list(prefix.edges) if prefix.length else []
    while edges and edges[-1] == cycle[-1]:
        edges.pop()
        cycle = cycle[-1:] + cycle[:-1]
    if edges:
        prefix = Path(edges=tuple(edges))
    else:
        prefix = vertex_path(g.source_of(cycle[0]))
    return BoundaryPath(prefix, cycle)


def shift(g: Graph, b: BoundaryPath) -> BoundaryPath:
    """Drop the first edge; length-0 finite boundary paths are fixed points."""
    if b.cycle is None:
        if b.prefix.length == 0:
            return b
        if b.prefix.length == 1:
            return BoundaryPath(vertex_path(g.path_range(b.prefix)), None)
        return BoundaryPath(Path(edges=b.prefix.edges[1:]), None)
    if b.prefix.length >= 1:
        if b.prefix.length == 1:
            prefix = vertex_path(g.path_range(b.prefix))
        else:
            prefix = Path(edges=b.prefix.edges[1:])
        return BoundaryPath(prefix, b.cycle)
    # Purely periodic: the cycle rotates by one.
    first = b.cycle[0]
    rotated = b.cycle[1:] + (first,)
    return BoundaryPath(vertex_path(g.range_of(first)), rotated)


def _rotations(cycle: tuple[EdgeRef, ...]):
    return {cycle[i:] + cycle[:i] for i in range(len(cycle))}


def st_equivalent(g: Graph, a: BoundaryPath, b: BoundaryPath) -> bool:
    """Shift-tail equivalence of two canonical boundary paths."""
    if (a.cycle is None) != (b.cycle is None):
        return False
    if a.cycle is None:
        return g.path_range(a.prefix) == g.path_range(b.prefix)
    return b.cycle in _rotations(a.cycle)


@dataclass(frozen=True)
class TailClass:
    """One shift-tail class: a representative and the class size.

    ``size`` is None when the class contains countably many boundary
    paths.
    """

    representative: BoundaryPath
    size: int | None


@dataclass(frozen=True)
class ClassCensus:
    """The shift-tail classes of a graph.

    Either ``uncountable`` is set (and ``classes`` is empty), or
    ``classes`` lists every class: one finite class per singular vertex
    and one eventually periodic class per rotation class of simple cycle.
    """

    uncountable: bool
    classes: tuple[TailClass, ...]

    @property
    def count(self) -> int | None:
        return None if self.uncountable else len(self.classes)


def _doubled_component(g: Graph) -> bool:
    """True iff some strongly connected component carries two distinct simple cycles.

    A strongly connected component of n vertices has at least n internal
    edges (counted with multiplicity) when it is nontrivial.  With exactly
    n, every vertex emits one edge inside it, so it is a lone cycle; with
    more, some vertex emits two, and each closes a different cycle.  An
    omega bundle counts as two edges.
    """
    comps = strongly_connected_components(g)
    comp_of = g._comp_of
    internal = [0] * len(comps)
    for b in g.bundles:
        c = comp_of[b.source]
        if comp_of[b.range] == c:
            internal[c] += 2 if is_omega(b.multiplicity) else b.multiplicity
    return any(m > len(comp) for m, comp in zip(internal, comps))


def _lone_cycle(g: Graph, comp: tuple[str, ...]) -> tuple[EdgeRef, ...] | None:
    """The simple cycle of a component without a doubled cycle; None if trivial."""
    cset = set(comp)
    refs = []
    u = comp[0]
    while True:
        inside = [b for b in g.out_bundles(u) if b.range in cset]
        if not inside:
            return None
        # not doubled, so this is the only internal bundle, of multiplicity 1
        refs.append(EdgeRef(inside[0].name, 0))
        u = inside[0].range
        if u == comp[0]:
            return _least_rotation(tuple(refs))


def enumerate_classes(g: Graph) -> ClassCensus:
    """Census of shift-tail classes.

    The class set is uncountable iff some strongly connected component
    contains two distinct simple cycles; otherwise it is finite, with one
    class per singular vertex and one per rotation class of simple cycle.
    """
    if _doubled_component(g):
        return ClassCensus(True, ())
    classes = []
    for v in g.vertices:
        if is_singular(g, v):
            rep = BoundaryPath(vertex_path(v), None)
            classes.append(TailClass(rep, count_paths_into(g, v)))
    lone = (_lone_cycle(g, comp) for comp in strongly_connected_components(g))
    cycles = sorted((c for c in lone if c), key=lambda c: (len(c), tuple(e.key() for e in c)))
    for cyc in cycles:
        rep = boundary_path(g, vertex_path(g.source_of(cyc[0])), cyc)
        # a member is a minimal prefix and a rotation: the vertex path at
        # a cycle vertex, or a path entering the cycle (its SCC) there
        entries = count_entry_paths(g, [g.source_of(e) for e in cyc])
        classes.append(TailClass(rep, None if entries is None else len(cyc) + entries))
    return ClassCensus(False, tuple(classes))


def class_of(g: Graph, census: ClassCensus, b: BoundaryPath) -> int:
    """Index of the census class containing ``b``."""
    for i, cls in enumerate(census.classes):
        if st_equivalent(g, cls.representative, b):
            return i
    raise ContractError("boundary path belongs to no census class")


def render_boundary_path(g: Graph, b: BoundaryPath) -> str:
    if b.cycle is None:
        return render_path(g, b.prefix)
    cyc = "".join(render_edge_ref(g, e) for e in b.cycle)
    head = "" if b.prefix.length == 0 else render_path(g, b.prefix)
    return f"{head}({cyc})^oo"


def finite_boundary_paths(g: Graph) -> tuple[BoundaryPath, ...]:
    """All finite boundary paths, sorted; requires every singular class finite."""
    out = []
    for v in g.vertices:
        if is_singular(g, v):
            out.extend(BoundaryPath(p, None) for p in paths_into(g, v))
    return tuple(sorted(out, key=lambda b: path_key(b.prefix)))
