"""The ops of each workload: the timed library calls and their checks.

An op is one ``Op``: ``run`` makes the timed library calls on a graph it
builds afresh (from a description, or by the CLI reading a JSON
document), so no ``Graph`` survives from one op to the next.  ``check``
compares the answers with independent oracles or with properties the
method must have, outside the timed region, and returns a failure
reason or None.  Oracle answers depend only on the input, so
``expected`` is computed once per op before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from leavitt import (
    OMEGA,
    Bundle,
    Graph,
    Monomial,
    Path,
    build_rho,
    check_condition4,
    check_condition5,
    composition_series,
    decompose_blocks,
    dimension,
    element,
    enumerate_admissible_pairs,
    enumerate_classes,
    evaluate,
    has_cycle,
    hom_space_dim,
    ideal_graph,
    multiply,
    naimark_isomorphism,
    normal_form,
    quotient_graph,
    star,
    verify_irreducible_block,
    verify_relations,
)
from leavitt.cli import main as cli_main
from leavitt.errors import NotFinitelyPresentableError
from leavitt.graph import EdgeRef

import families
import oracles


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    oracle: Callable[[], object]
    check: Callable[[object, object], str | None]
    expected: object = None


def graph_of(desc) -> Graph:
    vertices, edges = desc
    return Graph(
        vertices,
        tuple(Bundle(n, s, r, OMEGA if m == "omega" else m) for n, s, r, m in edges),
    )


def _size_key(x):
    return (x is None, x or 0)


def _sink_counts(desc) -> list[int]:
    dg = oracles.digraph(desc)
    return [oracles.paths_into(desc, dg, t) for t in oracles.sinks(desc)]


# -- sweep -----------------------------------------------------------------


def _sweep_run(desc):
    """Every acceptance check on one graph, in one pass."""
    g = graph_of(desc)
    c4 = check_condition4(g)
    witness = check_condition5(g)
    census = enumerate_classes(g)
    pairs = enumerate_admissible_pairs(g)
    splits = []
    for p in pairs:
        if p.s:
            continue
        try:
            ideal = ideal_graph(g, p.h)
        except NotFinitelyPresentableError:
            splits.append((p.h, None, None))
            continue
        left = enumerate_classes(ideal).count
        right = enumerate_classes(quotient_graph(g, p)).count
        splits.append((p.h, left, right))
    lam = None
    if witness is not None:
        lam = len(naimark_isomorphism(g, witness).lam)
    acyclic = not has_cycle(g)
    sizes = None
    if acyclic:
        sizes = [f.size for f in composition_series(g).factors]
    return c4, witness, census, len(pairs), splits, lam, acyclic, sizes


def sweep_oracle(desc) -> dict:
    dg = oracles.digraph(desc)
    acyclic = not oracles.cyclic_vertices(dg)
    singular = oracles.singular_vertices(desc)
    counts = [oracles.paths_into(desc, dg, v) for v in singular] if acyclic else []
    return {
        "acyclic": acyclic,
        "positive": acyclic and len(singular) == 1,
        "doubled": oracles.doubled_cycles(dg),
        "growth": oracles.growth_doubles(desc),
        "count": oracles.class_count(desc, dg),
        "pairs": oracles.admissible_pair_count(desc),
        "h_sets": set(oracles.saturated_hereditary_sets(desc)),
        "factor_sizes": sorted(counts, key=_size_key),
        "lam_squared": sum(n * n for n in counts if n is not None),
        "promotion": families.is_promotion(desc),
    }


def _sweep_check(e, result):
    c4, witness, census, n_pairs, splits, lam, acyclic, sizes = result
    if c4 != (witness is not None):
        return "condition 4 and condition 5 disagree"
    if c4 != e["positive"]:
        return "uniqueness decision differs from acyclic-with-one-singular-vertex"
    if census.uncountable != e["growth"] or census.uncountable != e["doubled"]:
        return "census uncountability differs from the growth and networkx oracles"
    if census.count != e["count"]:
        return f"class count {census.count} != oracle {e['count']}"
    if n_pairs != e["pairs"]:
        return f"{n_pairs} admissible pairs != oracle {e['pairs']}"
    if {frozenset(h) for h, _, _ in splits} != e["h_sets"]:
        return "saturated hereditary sets differ from the brute-force oracle"
    total = census.count
    for h, left, right in splits:
        if left is None and right is None:
            continue
        if total is None:
            if left is not None and right is not None:
                return f"H={h}: finite split of an uncountable census"
        elif left is None or right is None or left + right != total:
            return f"H={h}: {left} + {right} != {total}"
    if (lam is not None) != e["positive"]:
        return "matrix units missing or unexpected"
    if lam is not None and lam * lam != e["lam_squared"]:
        return f"|Lambda|^2 = {lam * lam} != sum of squared path counts {e['lam_squared']}"
    if acyclic != e["acyclic"]:
        return "acyclicity differs from networkx"
    if sizes is not None and sorted(sizes, key=_size_key) != e["factor_sizes"]:
        return "composition factor sizes differ from path counts into singular vertices"
    return None


def _sweep_op(item) -> Op:
    _, pos, desc = item
    return Op(
        f"sweep[{pos}]",
        lambda: _sweep_run(desc),
        lambda: sweep_oracle(desc),
        _sweep_check,
    )


# -- scaling -----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``leavitt.cli.main`` in process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _scaling_oracle(command, family, size, desc):
    """The answer each command must give, from closed forms and the edge list."""
    if command == "naimark":
        lam = size if family == "line" else 2 ** (size + 2) - 3
        (t,) = oracles.sinks(desc)
        count = oracles.paths_into(desc, oracles.digraph(desc), t)
        if lam != count:
            return f"closed form |Lambda| = {lam} but {count} paths end at the sink"
        return (lam, lam * lam, 1)
    if command == "classes":
        return (oracles.doubled_cycles(oracles.digraph(desc)), "III")
    if command == "ideals":
        return 2**size
    return sorted(_sink_counts(desc))


def _parse_cli(command, as_json, out):
    """The answer a command printed, or a failure reason as a string."""
    if as_json:
        doc = json.loads(out)
        if command == "naimark":
            if not doc["holds"] or len(doc["lambda"]) != doc["lambda_size"]:
                return "lambda listing and lambda size differ"
            return (doc["lambda_size"], doc["dimension"], doc["class_count"])
        if command == "classes":
            return (doc["uncountable"], doc["case"])
        if command == "ideals":
            if len(doc["pairs"]) != doc["count"]:
                return "pair listing and pair count differ"
            return doc["count"]
        return sorted(f["size"] for f in doc["factors"])
    lines = out.splitlines()
    if command == "naimark":
        fields = dict(line.split(": ", 1) for line in lines)
        if fields["holds"] != "yes":
            return "uniqueness reported as failing"
        return (int(fields["lambda size"]), int(fields["dimension"]), 1)
    if command == "classes":
        return (lines[1] == "classes: uncountable", lines[0].split(": ")[1])
    if command == "ideals":
        count = int(lines[0].split(": ")[1])
        if len(lines) != 1 + count:
            return "pair listing and pair count differ"
        return count
    return sorted(int(line.split()[3]) for line in lines if line.startswith("factor "))


def _scaling_op(item) -> Op:
    command, family, size, desc, path, as_json = item
    argv = [command, path] + (["--json"] if as_json else [])

    def check(expected, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        got = _parse_cli(command, as_json, out)
        if isinstance(got, str):
            return got
        if got != expected:
            return f"got {got}, expected {expected}"
        return None

    return Op(
        f"{command} {family}({size})" + (" --json" if as_json else ""),
        lambda: run_cli(argv),
        lambda: _scaling_oracle(command, family, size, desc),
        check,
    )


# -- matrices ----------------------------------------------------------------


def _broom_run(desc, witness):
    g = graph_of(desc)
    units = naimark_isomorphism(g, witness)
    return len(units.lam), dimension(g)


def _rep_run(desc):
    """The ``leavitt rep`` sequence plus intertwiners to each block and its successor."""
    g = graph_of(desc)
    R = build_rho(g)
    verify_relations(R)
    blocks = decompose_blocks(R)
    irreducible = [verify_irreducible_block(R, i)[0] for i in range(len(blocks))]
    k = len(blocks)
    homs = {}
    for a in range(k):
        for b in (a, (a + 1) % k):
            homs[(a, b)] = hom_space_dim(R, a, b)
    return R.dimension, [size for _, size in blocks], irreducible, homs


def _rep_check(counts, result):
    dim, sizes, irreducible, homs = result
    if dim != sum(counts) or sizes != counts:
        return f"blocks {sizes} differ from path counts into sinks {counts}"
    if not all(irreducible):
        return "a block is reducible"
    for (a, b), d in homs.items():
        if d != (1 if a == b else 0):
            return f"hom({a},{b}) = {d} is not delta"
    return None


def _path(edges, end):
    if not edges:
        return Path(vertex=end)
    return Path(edges=tuple(EdgeRef(e, 0) for e in edges))


def _element_of(terms):
    return element([(Monomial(_path(a, r), _path(b, r)), c) for c, a, b, r in terms])


def _element_run(desc, pairs):
    g = graph_of(desc)
    R = build_rho(g)
    out = []
    for xs, ys in pairs:
        x, y = _element_of(xs), _element_of(ys)
        xy = multiply(g, x, y)
        out.append(
            (
                evaluate(R, x),
                evaluate(R, y),
                evaluate(R, xy),
                normal_form(g, star(xy)),
                normal_form(g, multiply(g, star(y), star(x))),
            )
        )
    return out


def _element_check(_, result):
    for ex, ey, exy, star_of_product, product_of_stars in result:
        if oracles.sparse(exy) != oracles.sparse_product(oracles.sparse(ex), oracles.sparse(ey)):
            return "evaluate is not multiplicative"
        if star_of_product != product_of_stars:
            return "star does not reverse the product after normal_form"
    return None


def _matrices_op(item) -> Op:
    kind, name, desc, *rest = item
    if kind == "broom":
        (witness,) = rest

        def check(expected, result):
            if result != expected:
                return f"(|Lambda|, dimension) = {result}, expected {expected}"
            return None

        return Op(
            f"naimark_isomorphism broom |Lambda|={name}",
            lambda: _broom_run(desc, witness),
            lambda: (name, sum(n * n for n in _sink_counts(desc))),
            check,
        )
    if kind == "rep":
        return Op(f"rep {name}", lambda: _rep_run(desc), lambda: _sink_counts(desc), _rep_check)
    (pairs,) = rest
    return Op(
        f"elements {name}", lambda: _element_run(desc, pairs), lambda: None, _element_check
    )


def make_ops(workload: str, items: list[tuple]) -> list[Op]:
    make = {"sweep": _sweep_op, "scaling": _scaling_op, "matrices": _matrices_op}[workload]
    return [make(item) for item in items]
