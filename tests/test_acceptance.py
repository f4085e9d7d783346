"""End-to-end acceptance: the eight primary criteria.

Every test prints exactly one pass/fail line on the real stdout so the
verdicts survive pytest's capture; failure details ride on the assert.
The sweeps regenerate the graph family in place of shared storage.
"""

from leavitt import (
    FIXTURES,
    EdgeRef,
    Monomial,
    boundary_path,
    build_rho,
    blocks_invariant,
    check_condition4,
    check_condition5,
    composition_series,
    decompose_blocks,
    degree_components,
    dimension,
    element,
    enumerate_admissible_pairs,
    enumerate_classes,
    evaluate,
    has_cycle,
    hom_space_dim,
    ideal_graph,
    is_hereditary,
    is_omega,
    is_saturated,
    multiply,
    naimark_isomorphism,
    paths_into,
    quotient_graph,
    quotient_with_map,
    saturate,
    st_equivalent,
    trichotomy,
    verify_irreducible_block,
    verify_relations,
)
from leavitt.errors import GraphError, NotFinitelyPresentableError
from leavitt.graph import Path, line_through

from sweeputil import base_graphs, sweep_graphs
from test_boundary import _sample_paths

SWEEP_SIZE = 127771
ACYCLIC_BASE = 3442
POSITIVES = 1557
ADDITIVITY_CHECKS = 471232


def report(capsys, n, label, failures):
    verdict = "pass" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {n} ({label}): {verdict}", flush=True)
    assert not failures, f"criterion {n}: {len(failures)} failures, first: {failures[0]}"


def desc(g):
    bundles = ", ".join(
        f"{b.name}:{b.source}->{b.range}"
        + ("" if b.multiplicity == 1 else f"x{'w' if is_omega(b.multiplicity) else b.multiplicity}")
        for b in g.bundles
    )
    return f"[{' '.join(g.vertices)} | {bundles}]"


def test_criterion_1(capsys):
    failures = []
    total = 0
    for g in sweep_graphs():
        total += 1
        if check_condition4(g) != (check_condition5(g) is not None):
            failures.append(desc(g))
    if total != SWEEP_SIZE:
        failures.append(f"sweep produced {total} graphs, expected {SWEEP_SIZE}")
    report(capsys, 1, "single-class and line-point conditions agree on the sweep", failures)


def test_criterion_2(capsys):
    failures = []
    positives = 0
    for g in sweep_graphs():
        witness = check_condition5(g)
        if witness is None:
            continue
        positives += 1
        try:
            units = naimark_isomorphism(g, witness)
        except GraphError as exc:
            failures.append(f"{desc(g)}: {exc}")
            continue
        if dimension(g) != len(units.lam) ** 2:
            failures.append(f"{desc(g)}: dimension is not |Lambda|^2")
    if positives != POSITIVES:
        failures.append(f"{positives} positives, expected {POSITIVES}")
    report(capsys, 2, "positive graphs realize the full matrix algebra", failures)


def test_criterion_3(capsys):
    failures = []
    checked = 0
    for g in base_graphs():
        if has_cycle(g):
            continue
        checked += 1
        R = build_rho(g)
        try:
            verify_relations(R)
        except GraphError as exc:
            failures.append(f"{desc(g)}: {exc}")
            continue
        if not blocks_invariant(R):
            failures.append(f"{desc(g)}: a generator leaves a block")
        k = len(R.classes)
        for b in range(k):
            ok, _ = verify_irreducible_block(R, b)
            if not ok:
                failures.append(f"{desc(g)}: block {b} is reducible")
        for a in range(k):
            for b in range(k):
                if hom_space_dim(R, a, b) != (1 if a == b else 0):
                    failures.append(f"{desc(g)}: hom({a},{b}) is not delta")
    if checked != ACYCLIC_BASE:
        failures.append(f"{checked} acyclic graphs, expected {ACYCLIC_BASE}")
    report(capsys, 3, "relations, invariant irreducible blocks, Schur delta", failures)


def test_criterion_4(capsys):
    failures = []
    checked = 0
    for g in base_graphs():
        if has_cycle(g):
            continue
        checked += 1
        census = enumerate_classes(g)
        blocks = decompose_blocks(build_rho(g))
        series = composition_series(g)
        if not (series.length == census.count == len(blocks)):
            failures.append(f"{desc(g)}: series/census/block counts differ")
            continue
        block_dim = {g.path_range(paths[0]): n for paths, n in blocks}
        ends = []
        for i, f in enumerate(series.factors):
            quotient, origin = quotient_with_map(g, series.pairs[i])
            chain, _ = line_through(quotient, f.line_point)
            kind, t = origin[chain[-1]]
            if kind != "real" or g.out_bundles(t):
                failures.append(f"{desc(g)}: factor {i} does not end at a sink")
                continue
            ends.append(t)
            if f.size != block_dim.get(t):
                failures.append(
                    f"{desc(g)}: factor {i} size {f.size} != block dim at {t}"
                )
        if sorted(ends) != sorted(block_dim):
            failures.append(f"{desc(g)}: factors do not pair off with the sinks")
        rev = composition_series(g, reverse=True)
        if sorted(f.size for f in rev.factors) != sorted(block_dim.values()):
            failures.append(f"{desc(g)}: reverse factor multiset differs")
    if checked != ACYCLIC_BASE:
        failures.append(f"{checked} acyclic graphs, expected {ACYCLIC_BASE}")
    report(capsys, 4, "composition factors match the representation blocks", failures)


def test_criterion_5(capsys):
    failures = []
    checked = 0
    for g in sweep_graphs():
        total = enumerate_classes(g).count
        for p in enumerate_admissible_pairs(g):
            if p.s:
                continue
            try:
                ideal = ideal_graph(g, p.h)
            except NotFinitelyPresentableError:
                continue
            checked += 1
            left = enumerate_classes(ideal).count
            right = enumerate_classes(quotient_graph(g, p)).count
            if total is None:
                if left is not None and right is not None:
                    failures.append(f"{desc(g)} H={p.h}: finite split of an uncountable census")
            elif left is None or right is None or left + right != total:
                failures.append(f"{desc(g)} H={p.h}: {left} + {right} != {total}")
    if checked != ADDITIVITY_CHECKS:
        failures.append(f"{checked} additivity checks, expected {ADDITIVITY_CHECKS}")
    report(capsys, 5, "class counts add across ideal and quotient", failures)


def test_criterion_6(capsys):
    failures = []
    loop = trichotomy(FIXTURES["LOOP1"])
    if loop.case != "III" or loop.census.uncountable or loop.census.count != 1:
        failures.append(
            f"LOOP1: case {loop.case}, count {loop.census.count}, expected III with 1"
        )
    rose = trichotomy(FIXTURES["ROSE2"])
    if rose.case != "III" or not rose.census.uncountable or rose.census.count is not None:
        failures.append(
            f"ROSE2: case {rose.case}, uncountable {rose.census.uncountable}"
        )
    report(capsys, 6, "one-loop and two-rose reference spectra", failures)


def _hereditary_subsets(g):
    vs = list(g.vertices)
    for mask in range(1 << len(vs)):
        h = {v for i, v in enumerate(vs) if mask >> i & 1}
        if is_hereditary(g, h):
            yield h


def _finite_paths(g, max_len=3):
    acc = [g.vertex_path(v) for v in g.vertices]
    frontier = list(acc)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for b in g.out_bundles(g.path_range(p)):
                width = 2 if is_omega(b.multiplicity) else min(b.multiplicity, 2)
                for i in range(width):
                    nxt.append(Path(edges=p.edges + (EdgeRef(b.name, i),)))
        acc.extend(nxt)
        frontier = nxt
    return acc


def test_criterion_7(capsys):
    failures = []
    for name, g in FIXTURES.items():
        # saturate is a closure operator
        hsets = list(_hereditary_subsets(g))
        for h in hsets:
            s = set(saturate(g, h))
            if not h <= s:
                failures.append(f"{name}: saturate is not extensive on {h}")
            if set(saturate(g, s)) != s:
                failures.append(f"{name}: saturate is not idempotent on {h}")
            for t in hsets:
                if is_saturated(g, t) and h <= t and not s <= t:
                    failures.append(f"{name}: saturation of {h} is not least")
            for h2 in hsets:
                if h <= h2 and not s <= set(saturate(g, h2)):
                    failures.append(f"{name}: saturate is not monotone at {h}")
        # shift-tail equivalence is an equivalence relation
        paths = _sample_paths(g)
        for a in paths:
            if not st_equivalent(g, a, a):
                failures.append(f"{name}: reflexivity fails")
            for b in paths:
                if st_equivalent(g, a, b) != st_equivalent(g, b, a):
                    failures.append(f"{name}: symmetry fails")
                if not st_equivalent(g, a, b):
                    continue
                for c in paths:
                    if st_equivalent(g, b, c) and not st_equivalent(g, a, c):
                        failures.append(f"{name}: transitivity fails")
        # the product of homogeneous elements is homogeneous of the summed degree
        finite = _finite_paths(g)
        monos = [
            Monomial(a, b)
            for a in finite
            for b in finite
            if g.path_range(a) == g.path_range(b)
        ]
        for i in range(0, len(monos), 7):
            for j in range(0, len(monos), 11):
                x = element([(monos[i], 1)])
                y = element([(monos[j], 1)])
                d1 = monos[i].alpha.length - monos[i].beta.length
                d2 = monos[j].alpha.length - monos[j].beta.length
                prod = multiply(g, x, y)
                if set(degree_components(prod)) - {d1 + d2}:
                    failures.append(f"{name}: grading breaks at {monos[i]} {monos[j]}")
        # evaluate is injective on the sink basis
        if has_cycle(g) or any(is_omega(b.multiplicity) for b in g.bundles):
            continue
        R = build_rho(g)
        index = {p: i for i, p in enumerate(R.basis)}
        positions = set()
        for t in g.vertices:
            if g.out_bundles(t):
                continue
            for alpha in paths_into(g, t):
                for beta in paths_into(g, t):
                    mat = evaluate(R, element([(Monomial(alpha, beta), 1)]))
                    hits = [
                        (r, c)
                        for r in range(R.dimension)
                        for c in range(R.dimension)
                        if mat[r][c]
                    ]
                    if hits != [(index[alpha], index[beta])] or mat[hits[0][0]][hits[0][1]] != 1:
                        failures.append(f"{name}: basis monomial acts badly")
                    positions.add(hits[0])
        if len(positions) != dimension(g):
            failures.append(f"{name}: evaluate is not injective on the sink basis")
    report(capsys, 7, "closure, equivalence, grading and faithfulness laws", failures)


def _growth_doubles(g, horizon=12):
    """True iff some vertex carries two length-n circuits for an n <= horizon.

    Row i of the path-count matrix, capped at 2, is kept as two bit masks:
    the columns with at least one path and those with at least two.  A
    product entry reaches 2 when one term does (a count of 2 times a
    count of 1 or more, either way round) or when two terms reach 1.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    one, two = [0] * n, [0] * n
    for b in g.bundles:
        i, bit = idx[b.source], 1 << idx[b.range]
        if is_omega(b.multiplicity) or b.multiplicity > 1 or one[i] & bit:
            two[i] |= bit
        one[i] |= bit
    p_one, p_two = one, two
    for step in range(horizon):
        if any(p_two[i] >> i & 1 for i in range(n)):
            return True
        if step + 1 < horizon:
            rows_one, rows_two = [], []
            for i in range(n):
                r1 = r2 = 0
                for k in range(n):
                    if p_one[i] >> k & 1:
                        r2 |= r1 & one[k] | (one[k] if p_two[i] >> k & 1 else two[k])
                        r1 |= one[k]
                rows_one.append(r1)
                rows_two.append(r2)
            p_one, p_two = rows_one, rows_two
    return False


def test_criterion_8(capsys):
    failures = []
    total = 0
    for g in sweep_graphs():
        total += 1
        if enumerate_classes(g).uncountable != _growth_doubles(g):
            failures.append(desc(g))
    if total != SWEEP_SIZE:
        failures.append(f"sweep produced {total} graphs, expected {SWEEP_SIZE}")
    report(capsys, 8, "uncountability agrees with the path-growth oracle", failures)
