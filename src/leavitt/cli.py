"""Command-line front end: graph ingestion, reports, and DOT export.

Graph documents are JSON objects::

    {"vertices": ["u", "v"],
     "edges": [{"name": "e", "source": "u", "range": "v", "multiplicity": 1}]}

``multiplicity`` may be omitted (defaults to 1) or the string "omega"
for a countably infinite bundle.  Exit codes: 0 success, 1 negative
uniqueness decision (naimark only), 2 any error; an exception no other
handler names is reported as ``internal: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import dimension
from .errors import (
    GraphError,
    InternalInvariantError,
    NotFinitelyPresentableError,
    UnsupportedGraphError,
)
from .fixtures import FIXTURES
from .graph import (
    OMEGA,
    Bundle,
    Graph,
    classify_vertex,
    downward_directed,
    has_cycle,
    is_omega,
    line_points,
    render_edge_ref,
    simple_cycles,
    singular_vertices,
    strongly_connected_components,
)
from .boundary import render_boundary_path
from .ideals import enumerate_admissible_pairs
from .naimark import composition_series, naimark_decision, trichotomy
from .repn import (
    build_rho,
    lambda_texts,
    verify_irreducible_block,
    verify_relations,
)


class SchemaError(Exception):
    """The graph document does not match the on-disk schema."""


_DOC_KEYS = {"vertices", "edges"}
_EDGE_KEYS = {"name", "source", "range", "multiplicity"}


def parse_document(doc) -> Graph:
    """Validate a decoded JSON document and build the graph.

    Schema violations are reported with the structural position of the
    offending value (for example ``edges[2].multiplicity``).
    """
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    unknown = sorted(set(doc) - _DOC_KEYS)
    if unknown:
        raise SchemaError(f"top level: unknown keys {unknown}")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise SchemaError("vertices: expected a list of strings")
    if not vertices:
        raise SchemaError("vertices: at least one vertex is required")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise SchemaError("edges: expected a list")
    specs = []
    for i, entry in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = sorted(set(entry) - _EDGE_KEYS)
        if unknown:
            raise SchemaError(f"{where}: unknown keys {unknown}")
        for key in ("name", "source", "range"):
            if not isinstance(entry.get(key), str):
                raise SchemaError(f"{where}.{key}: expected a string")
        m = entry.get("multiplicity", 1)
        if m == "omega":
            mult = OMEGA
        elif isinstance(m, int) and not isinstance(m, bool) and m >= 1:
            mult = m
        else:
            raise SchemaError(
                f'{where}.multiplicity: expected a positive integer or "omega"'
            )
        specs.append((entry["name"], entry["source"], entry["range"], mult))
    try:
        return Graph(tuple(vertices), tuple(Bundle(*s) for s in specs))
    except GraphError as exc:
        raise SchemaError(str(exc)) from exc


def graph_to_document(g: Graph) -> dict:
    """Canonical document form: multiplicity omitted when 1."""
    edges = []
    for b in g.bundles:
        entry = {"name": b.name, "source": b.source, "range": b.range}
        if is_omega(b.multiplicity):
            entry["multiplicity"] = "omega"
        elif b.multiplicity != 1:
            entry["multiplicity"] = b.multiplicity
        edges.append(entry)
    return {"vertices": list(g.vertices), "edges": edges}


def render_document(g: Graph) -> str:
    return json.dumps(graph_to_document(g), indent=2, sort_keys=True) + "\n"


def load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise SchemaError(f"{path}: nested too deeply to decode") from exc
    return parse_document(doc)


_encode_str = json.encoder.encode_basestring_ascii
# The scalars written without json.dumps: exact str and exact int.
_ENCODERS = {str: _encode_str, int: int.__repr__}


def _emit(payload) -> None:
    """Print ``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    The indented layout is written here, with the C string encoder for
    strings and keys and ``int.__repr__`` for exact ints, since
    ``json.dumps`` with an indent encodes in pure Python.  Any other value
    (bool, None, float, a subclass, a dict with a non-``str`` key) goes to
    ``json.dumps`` itself, re-indented to its depth.  The text is streamed
    piece by piece, never held whole.
    """
    _write(payload, "\n")
    sys.stdout.write("\n")


def _write(x, pad: str) -> None:
    """Write the text of ``x`` at the depth whose line break is ``pad`` to ``sys.stdout``."""
    # looked up on each call, so that contextlib.redirect_stdout takes effect
    write = sys.stdout.write
    kind = type(x)
    encode = _ENCODERS.get(kind)
    if encode is not None:
        write(encode(x))
    elif (kind is dict or kind is list or kind is tuple) and not x:
        write("{}" if kind is dict else "[]")
    elif kind is dict and set(map(type, x)) == {str}:
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(x):
            write(sep + _encode_str(key) + ": ")
            _write(x[key], inner)
            sep = "," + inner
        write(pad + "}")
    elif kind is list or kind is tuple:
        inner = pad + "  "
        kinds = set(map(type, x))
        encode = _ENCODERS.get(kinds.pop()) if len(kinds) == 1 else None
        if encode is not None:
            write("[" + inner + ("," + inner).join(map(encode, x)) + pad + "]")
            return
        sep = "[" + inner
        for item in x:
            write(sep)
            _write(item, inner)
            sep = "," + inner
        write(pad + "]")
    else:
        write(json.dumps(x, indent=2, sort_keys=True).replace("\n", pad))


def _size(n: int | None):
    return "omega" if n is None else n


def _mult_text(m) -> str:
    return "ω" if is_omega(m) else str(m)


def _vertex_set(vs) -> str:
    return "{" + ", ".join(vs) + "}"


def cmd_analyze(g: Graph, args) -> int:
    cycle_note = None
    try:
        rendered_cycles = [
            "".join(render_edge_ref(g, e) for e in cyc) for cyc in simple_cycles(g)
        ]
    except NotFinitelyPresentableError as exc:
        rendered_cycles = None
        cycle_note = str(exc)
    sccs = strongly_connected_components(g)
    if args.json:
        _emit(
            {
                "graph": graph_to_document(g),
                "vertex_classes": {
                    v: classify_vertex(g, v).value for v in g.vertices
                },
                "singular_vertices": list(singular_vertices(g)),
                "acyclic": not has_cycle(g),
                "simple_cycles": rendered_cycles,
                "simple_cycles_note": cycle_note,
                "line_points": list(line_points(g)),
                "downward_directed": downward_directed(g),
                "strongly_connected_components": [list(c) for c in sccs],
            }
        )
        return 0
    print(f"graph: {len(g.vertices)} vertices, {len(g.bundles)} bundles")
    for v in g.vertices:
        print(f"vertex {v}: {classify_vertex(g, v).value}")
    for b in g.bundles:
        print(f"bundle {b.name}: {b.source} -> {b.range} ×{_mult_text(b.multiplicity)}")
    print(f"acyclic: {_yes(not has_cycle(g))}")
    if rendered_cycles is None:
        print(f"simple cycles: unavailable ({cycle_note})")
    elif rendered_cycles:
        print(f"simple cycles ({len(rendered_cycles)}): " + ", ".join(rendered_cycles))
    else:
        print("simple cycles: none")
    print("line points: " + (", ".join(line_points(g)) or "none"))
    print(f"downward directed: {_yes(downward_directed(g))}")
    print(
        "strongly connected components: "
        + " ".join("[" + " ".join(c) + "]" for c in sccs)
    )
    return 0


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_naimark(g: Graph, args) -> int:
    report = naimark_decision(g)
    if args.json:
        lam = None
        if report.holds:
            lam = lambda_texts(g, report.witness)
            if len(lam) != report.lam_size:
                raise InternalInvariantError("the listed index set differs from its count")
        _emit(
            {
                "holds": report.holds,
                "condition4": report.condition4,
                "witness": report.witness,
                "lambda": lam,
                "lambda_size": report.lam_size,
                "dimension": report.dimension,
                "class_count": _size(report.census.count),
                "saturation_chain": None
                if report.saturation_chain is None
                else [list(stage) for stage in report.saturation_chain],
            }
        )
        return 0 if report.holds else 1
    print(f"holds: {_yes(report.holds)}")
    if report.holds:
        print(f"witness: {report.witness}")
        print(f"lambda size: {report.lam_size}")
        print(f"dimension: {report.dimension}")
        chain = " -> ".join(_vertex_set(s) for s in report.saturation_chain)
        print(f"saturation chain: {chain}")
    else:
        count = report.census.count
        print(f"classes: {'uncountable' if count is None else count}")
    return 0 if report.holds else 1


def cmd_classes(g: Graph, args) -> int:
    report = trichotomy(g)
    census = report.census
    if args.json:
        _emit(
            {
                "case": report.case,
                "uncountable": census.uncountable,
                "count": _size(census.count),
                "classes": [
                    {
                        "representative": render_boundary_path(g, c.representative),
                        "size": _size(c.size),
                    }
                    for c in census.classes
                ],
            }
        )
        return 0
    print(f"case: {report.case}")
    if census.uncountable:
        print("classes: uncountable")
        return 0
    print(f"classes: {census.count}")
    for c in census.classes:
        print(
            f"  {render_boundary_path(g, c.representative)}: size {_size(c.size)}"
        )
    return 0


def cmd_compseries(g: Graph, args) -> int:
    series = composition_series(g)
    if args.json:
        _emit(
            {
                "length": series.length,
                "pairs": [
                    {"h": list(p.h), "s": list(p.s)} for p in series.pairs
                ],
                "factors": [
                    {"size": _size(f.size), "line_point": f.line_point}
                    for f in series.factors
                ],
            }
        )
        return 0
    print(f"length: {series.length}")
    for i, p in enumerate(series.pairs):
        print(f"pair {i}: H={_vertex_set(p.h)} S={_vertex_set(p.s)}")
    for i, f in enumerate(series.factors, start=1):
        print(f"factor {i}: size {_size(f.size)} at {f.line_point}")
    return 0


def cmd_rep(g: Graph, args) -> int:
    R = build_rho(g)
    verify_relations(R)
    blocks = [[R.texts[i] for i in block] for block in R.classes]
    irreducible = [verify_irreducible_block(R, i)[0] for i in range(len(blocks))]
    if args.json:
        _emit(
            {
                "dimension": R.dimension,
                "basis": R.texts,
                "relations_verified": True,
                "blocks": [
                    {"paths": paths, "size": len(paths), "irreducible": ok}
                    for paths, ok in zip(blocks, irreducible)
                ],
                "generators": {
                    label: _matrix_rows(R.generator_map(label), R.dimension)
                    for label in R.generator_labels()
                },
            }
        )
        return 0
    print(f"dimension: {R.dimension}")
    print("basis: " + ", ".join(R.texts))
    print("relations: verified")
    for i, (paths, ok) in enumerate(zip(blocks, irreducible)):
        print(f"block {i}: size {len(paths)}, irreducible: {_yes(ok)}, paths: " + ", ".join(paths))
    print(f"algebra dimension: {dimension(g)}")
    return 0


def _matrix_rows(m: dict[int, int], n: int) -> list[list[int]]:
    """The 0/1 rows of a partial map's n x n matrix: entry [image, argument] is 1."""
    rows = [[0] * n for _ in range(n)]
    for j, i in m.items():
        rows[i][j] = 1
    return rows


def cmd_ideals(g: Graph, args) -> int:
    pairs = enumerate_admissible_pairs(g)
    if args.json:
        _emit(
            {
                "count": len(pairs),
                "pairs": [{"h": list(p.h), "s": list(p.s)} for p in pairs],
            }
        )
        return 0
    print(f"admissible pairs: {len(pairs)}")
    for p in pairs:
        print(f"  H={_vertex_set(p.h)} S={_vertex_set(p.s)}")
    return 0


def cmd_export_dot(g: Graph, args) -> int:
    lines = ["digraph E {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for b in g.bundles:
        label = f"{b.name}×{_mult_text(b.multiplicity)}"
        lines.append(f'  "{b.source}" -> "{b.range}" [label="{label}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="finitely presented graph workbench for Leavitt path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", help="graph document (JSON)")
        p.add_argument(
            "--fixture", choices=list(FIXTURES), help="use a built-in graph"
        )
        if json_flag:
            p.add_argument(
                "--json", action="store_true", help="machine-readable output"
            )
        return p

    add("analyze", "classify vertices, cycles, line points, components")
    add("naimark", "decide uniqueness of the irreducible representation")
    add("classes", "shift-tail class census and spectrum case")
    add("compseries", "composition series of admissible pairs")
    add("rep", "boundary-path representation: matrices, blocks, certificates")
    add("ideals", "enumerate admissible pairs")
    add("export-dot", "emit the graph in DOT format", json_flag=False)
    return parser


def _resolve_graph(args, parser: argparse.ArgumentParser) -> Graph:
    if args.fixture is not None and args.file is not None:
        parser.error("give a graph file or --fixture, not both")
    if args.fixture is not None:
        return FIXTURES[args.fixture]
    if args.file is None:
        parser.error("a graph file or --fixture is required")
    return load_graph(args.file)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process."""
    parser = _parser()
    args = parser.parse_args(argv)
    # Looked up at call time, so that a replaced cmd_<name> takes effect.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        g = _resolve_graph(args, parser)
        return handler(g, args)
    except UnsupportedGraphError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
