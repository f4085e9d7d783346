"""JSON ingestion, report commands, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leavitt.graph
from leavitt import FIXTURES, OMEGA, Bundle, Graph
from leavitt.cli import (
    SchemaError,
    graph_to_document,
    load_graph,
    main,
    parse_document,
    render_document,
)

LINE3 = FIXTURES["LINE3"]
FORK = FIXTURES["FORK"]
OMEGA1 = FIXTURES["OMEGA"]
OMEGA2 = FIXTURES["OMEGA2"]


def doc_of(g):
    return json.loads(render_document(g))


# -- document round trips -----------------------------------------------------


def test_parse_render_round_trip():
    for g in FIXTURES.values():
        assert parse_document(graph_to_document(g)) == g
        assert parse_document(doc_of(g)) == g


def test_render_is_stable():
    for g in FIXTURES.values():
        text = render_document(g)
        assert render_document(parse_document(json.loads(text))) == text
        assert text.endswith("\n")


def test_multiplicity_round_trip():
    g = Graph(("u", "v"), (Bundle("e", "u", "v", 3), Bundle("h", "u", "v", OMEGA)))
    doc = graph_to_document(g)
    assert doc["edges"][0]["multiplicity"] == 3
    assert doc["edges"][1]["multiplicity"] == "omega"
    assert parse_document(doc) == g


def test_multiplicity_defaults_to_one():
    doc = {"vertices": ["u", "v"], "edges": [{"name": "e", "source": "u", "range": "v"}]}
    g = parse_document(doc)
    assert g.bundle("e").multiplicity == 1
    assert "multiplicity" not in graph_to_document(g)["edges"][0]


# -- schema errors ----------------------------------------------------------


def schema_error(doc):
    with pytest.raises(SchemaError) as err:
        parse_document(doc)
    return str(err.value)


def test_schema_positions():
    assert schema_error([]) == "top level: expected an object"
    assert "unknown keys ['extra']" in schema_error(
        {"vertices": ["v"], "edges": [], "extra": 1}
    )
    assert schema_error({"edges": []}) == "vertices: expected a list of strings"
    assert schema_error({"vertices": [1]}) == "vertices: expected a list of strings"
    assert (
        schema_error({"vertices": []}) == "vertices: at least one vertex is required"
    )
    assert schema_error({"vertices": ["v"], "edges": {}}) == "edges: expected a list"
    assert schema_error({"vertices": ["v"], "edges": [3]}) == "edges[0]: expected an object"
    msg = schema_error(
        {
            "vertices": ["v"],
            "edges": [
                {"name": "e", "source": "v", "range": "v"},
                {"name": "f", "source": "v", "range": "v", "weight": 2},
            ],
        }
    )
    assert msg == "edges[1]: unknown keys ['weight']"
    msg = schema_error({"vertices": ["v"], "edges": [{"name": 5, "source": "v", "range": "v"}]})
    assert msg == "edges[0].name: expected a string"


def test_schema_multiplicity_values():
    base = {"name": "e", "source": "v", "range": "v"}
    for bad in (0, -1, "two", True, 1.5, None):
        msg = schema_error({"vertices": ["v"], "edges": [dict(base, multiplicity=bad)]})
        assert msg == 'edges[0].multiplicity: expected a positive integer or "omega"'
    g = parse_document({"vertices": ["v"], "edges": [dict(base, multiplicity="omega")]})
    assert g.bundle("e").multiplicity is OMEGA


def test_schema_wraps_graph_errors():
    msg = schema_error(
        {
            "vertices": ["u"],
            "edges": [{"name": "e", "source": "u", "range": "x"}],
        }
    )
    assert "x" in msg


def test_load_graph_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"vertices": [}', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_graph(str(p))
    assert str(p) in str(err.value)
    assert "line 1" in str(err.value)


# -- exit codes ----------------------------------------------------------------


def test_naimark_positive_exit(capsys):
    assert main(["naimark", "--fixture", "LINE3"]) == 0
    out = capsys.readouterr().out
    assert "holds: yes" in out
    assert "witness: u" in out
    assert "lambda size: 3" in out
    assert "dimension: 9" in out
    assert "saturation chain: {u, v, w}" in out


def test_naimark_negative_exit(capsys, tmp_path):
    p = tmp_path / "fork.json"
    p.write_text(render_document(FORK), encoding="utf-8")
    assert main(["naimark", str(p)]) == 1
    out = capsys.readouterr().out
    assert "holds: no" in out
    assert "classes: 2" in out


def test_naimark_uncountable(capsys):
    assert main(["naimark", "--fixture", "ROSE2"]) == 1
    assert "classes: uncountable" in capsys.readouterr().out


def test_unsupported_exit(capsys):
    assert main(["compseries", "--fixture", "LOOP1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unsupported: graph has a cycle")


def test_schema_error_exit(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text('{"vertices": []}', encoding="utf-8")
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertices: at least one vertex is required")


def test_missing_file_exit(capsys):
    assert main(["analyze", "no-such-file.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\xff", "not UTF-8: invalid start byte at byte 0"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply to decode"),
    ],
    ids=["not_utf8", "nested_100000_deep"],
)
def test_malformed_file_exit(capsys, tmp_path, data, reason):
    # both were reported as internal faults: UnicodeDecodeError, RecursionError
    p = tmp_path / "g.json"
    p.write_bytes(data)
    assert main(["analyze", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}:")
    assert captured.err == f"error: {p}: {reason}\n"


def test_file_and_fixture_conflict(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(render_document(LINE3), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(p), "--fixture", "LINE3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


# -- command output --------------------------------------------------------------


def test_analyze_text(capsys):
    assert main(["analyze", "--fixture", "ROSE2"]) == 0
    out = capsys.readouterr().out
    assert "graph: 1 vertices, 2 bundles" in out
    assert "vertex v: regular" in out
    assert "acyclic: no" in out
    assert "simple cycles (2): e, f" in out
    assert "line points: none" in out

    assert main(["analyze", "--fixture", "OMEGA2"]) == 0
    out = capsys.readouterr().out
    assert "vertex v: infinite-emitter" in out
    assert "bundle h: v -> w ×ω" in out
    assert "line points: u, w" in out


def test_classes_text(capsys):
    assert main(["classes", "--fixture", "LINE3"]) == 0
    out = capsys.readouterr().out
    assert "case: I\nclasses: 1\n  w: size 3\n" == out

    assert main(["classes", "--fixture", "OMEGA2"]) == 0
    out = capsys.readouterr().out
    assert "case: I" in out
    assert "  w: size omega" in out

    assert main(["classes", "--fixture", "LOOP1"]) == 0
    out = capsys.readouterr().out
    assert "case: III" in out
    assert "  (e)^oo: size 1" in out

    assert main(["classes", "--fixture", "ROSE2"]) == 0
    assert "classes: uncountable" in capsys.readouterr().out


def test_compseries_text(capsys):
    assert main(["compseries", "--fixture", "FORK"]) == 0
    out = capsys.readouterr().out
    assert "length: 2" in out
    assert "pair 0: H={} S={}" in out
    assert "pair 1: H={v} S={}" in out
    assert "pair 2: H={u, v, w} S={}" in out
    assert "factor 1: size 2 at v" in out
    assert "factor 2: size 2 at u" in out


def test_rep_text(capsys):
    assert main(["rep", "--fixture", "LINE3"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 3" in out
    assert "basis: w, f, ef" in out
    assert "relations: verified" in out
    assert "block 0: size 3, irreducible: yes, paths: w, f, ef" in out
    assert "algebra dimension: 9" in out


def test_rep_refuses_cycles(capsys):
    assert main(["rep", "--fixture", "LOOP1"]) == 2
    assert capsys.readouterr().err.startswith("unsupported: ")


def test_ideals_text(capsys):
    assert main(["ideals", "--fixture", "OMEGA2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("admissible pairs: 6\n")
    assert "  H={w} S={v}" in out


def test_export_dot(capsys):
    assert main(["export-dot", "--fixture", "LINE3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph E {")
    assert '  "u" -> "v" [label="e×1"];' in out
    assert out.rstrip().endswith("}")

    assert main(["export-dot", "--fixture", "OMEGA"]) == 0
    assert '"v" -> "w" [label="h×ω"];' in capsys.readouterr().out


# -- machine-readable output -------------------------------------------------------


def test_naimark_json(capsys):
    assert main(["naimark", "--fixture", "LINE3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["witness"] == "u"
    assert doc["lambda"] == ["u", "v", "w"]
    assert doc["dimension"] == 9
    assert doc["class_count"] == 1
    assert doc["saturation_chain"] == [["u", "v", "w"]]

    assert main(["naimark", "--fixture", "OMEGA", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False and doc["lambda"] is None


def test_classes_json(capsys):
    assert main(["classes", "--fixture", "OMEGA2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "I" and doc["count"] == 3
    assert doc["classes"][2] == {"representative": "w", "size": "omega"}

    assert main(["classes", "--fixture", "ROSE2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["uncountable"] is True and doc["count"] == "omega"


def test_analyze_json_round_trips_graph(capsys):
    assert main(["analyze", "--fixture", "OMEGA2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_document(doc["graph"]) == OMEGA2
    assert doc["vertex_classes"]["v"] == "infinite-emitter"
    assert doc["acyclic"] is True


OMEGA_LOOP_NOTE = (
    "bundle 'e' has multiplicity omega and lies on a cycle; the simple cycles cannot be listed"
)


def test_analyze_reports_unlistable_cycles(tmp_path, capsys):
    g = Graph(("v", "w"), (Bundle("e", "v", "v", OMEGA), Bundle("f", "v", "w")))
    path = tmp_path / "omega_loop.json"
    path.write_text(render_document(g))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == (
        "graph: 2 vertices, 2 bundles\n"
        "vertex v: infinite-emitter\n"
        "vertex w: sink\n"
        "bundle e: v -> v ×ω\n"
        "bundle f: v -> w ×1\n"
        "acyclic: no\n"
        f"simple cycles: unavailable ({OMEGA_LOOP_NOTE})\n"
        "line points: w\n"
        "downward directed: yes\n"
        "strongly connected components: [v] [w]\n"
    )
    assert main(["analyze", str(path), "--json"]) == 0
    expected = {
        "acyclic": False,
        "downward_directed": True,
        "graph": graph_to_document(g),
        "line_points": ["w"],
        "simple_cycles": None,
        "simple_cycles_note": OMEGA_LOOP_NOTE,
        "singular_vertices": ["v", "w"],
        "strongly_connected_components": [["v"], ["w"]],
        "vertex_classes": {"v": "infinite-emitter", "w": "sink"},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_rep_json(capsys):
    assert main(["rep", "--fixture", "FORK", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 4
    assert [b["size"] for b in doc["blocks"]] == [2, 2]
    assert all(b["irreducible"] for b in doc["blocks"])
    matrix = doc["generators"]["p_u"]
    assert sum(sum(row) for row in matrix) == 2


# bundles p3, p10, p2 are declared in neither string nor numeric order, and
# p2 has multiplicity 3, so its edges render with their indices
ORDERING = Graph(
    ("a", "u", "w", "t"),
    (
        Bundle("p3", "u", "w"),
        Bundle("p10", "u", "t"),
        Bundle("p2", "u", "w", 3),
        Bundle("q", "a", "u", 2),
        Bundle("z", "w", "t"),
    ),
)


def test_listings_follow_path_key_order(tmp_path, capsys):
    path = tmp_path / "ordering.json"
    path.write_text(render_document(ORDERING))
    assert main(["naimark", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["witness"], doc["lambda_size"]) == ("w", 17)
    assert doc["lambda"] == [
        "w", "t",
        "p10", "p2#0", "p2#1", "p2#2", "p3",
        "q#0p10", "q#0p2#0", "q#0p2#1", "q#0p2#2", "q#0p3",
        "q#1p10", "q#1p2#0", "q#1p2#1", "q#1p2#2", "q#1p3",
    ]  # fmt: skip
    assert main(["rep", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    basis = [
        "t",
        "p10", "z",
        "p2#0z", "p2#1z", "p2#2z", "p3z", "q#0p10", "q#1p10",
        "q#0p2#0z", "q#0p2#1z", "q#0p2#2z", "q#0p3z",
        "q#1p2#0z", "q#1p2#1z", "q#1p2#2z", "q#1p3z",
    ]  # fmt: skip
    assert doc["basis"] == basis
    assert doc["blocks"][0]["paths"] == basis


def test_json_output_is_stable(capsys):
    assert main(["compseries", "--fixture", "OMEGA2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compseries", "--fixture", "OMEGA2", "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["length"] == 3
    assert doc["factors"][1] == {"size": "omega", "line_point": "w"}


# -- long inputs ---------------------------------------------------------------


def write_line(tmp_path, n):
    doc = {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [
            {"name": f"e{i}", "source": f"v{i}", "range": f"v{i + 1}"}
            for i in range(n - 1)
        ],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    return path


def test_long_line_has_no_recursion_ceiling(tmp_path, capsys):
    n = 1500
    path = write_line(tmp_path, n)

    assert main(["classes", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "case: I",
        "classes: 1",
        f"  v{n - 1}: size {n}",
    ]

    assert main(["naimark", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["holds: yes", "witness: v0", f"lambda size: {n}", f"dimension: {n * n}"]

    assert main(["compseries", str(path)]) == 0
    assert capsys.readouterr().out.startswith("length: 1\n")


def test_analyze_long_line_in_linear_time(tmp_path, capsys):
    # downward directedness intersected n^2 pairs of trees and the circuit
    # walk ran down the line from every vertex: 27 s on this line
    path = write_line(tmp_path, 1500)
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert "downward directed: yes" in capsys.readouterr().out.splitlines()


def test_analyze_long_cycle_in_linear_time(tmp_path, capsys):
    # a circuit walk from every vertex of the cycle took over 5 s here on
    # a 2-core VM
    n = 4000
    doc = {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [
            {"name": f"e{i}", "source": f"v{i}", "range": f"v{(i + 1) % n}"}
            for i in range(n)
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    cycle = "".join(f"e{i}" for i in range(n))

    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert f"simple cycles (1): {cycle}" in capsys.readouterr().out.splitlines()

    start = time.perf_counter()
    assert main(["analyze", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["simple_cycles"] == [cycle]


def comb(k):
    """Spine s0 -> ... -> s(k-1) with a tooth sink t_i under each s_i: 2^k pairs."""
    s = [f"s{i}" for i in range(k)]
    t = [f"t{i}" for i in range(k)]
    bundles = [Bundle(f"f{i}", s[i], s[i + 1]) for i in range(k - 1)]
    bundles += [Bundle(f"g{i}", s[i], t[i]) for i in range(k)]
    return Graph(tuple(s + t), tuple(bundles))


@pytest.mark.parametrize("name, count", [("line", 2), ("comb", 1024)])
def test_ideals_at_the_guard_in_output_sized_time(tmp_path, capsys, name, count):
    # walking all 2^20 vertex subsets took 6.1 s on line(20) and 6.9 s on
    # comb(10) on a 2-core VM
    if name == "line":
        path = write_line(tmp_path, 20)
    else:
        path = tmp_path / "comb.json"
        path.write_text(render_document(comb(10)))

    start = time.perf_counter()
    assert main(["ideals", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"admissible pairs: {count}" and len(lines) == count + 1

    start = time.perf_counter()
    assert main(["ideals", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == count and len(doc["pairs"]) == count


def test_ideals_refuses_more_than_20_vertices(tmp_path, capsys):
    assert main(["ideals", str(write_line(tmp_path, 21))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: admissible-pair enumeration is limited to 20 vertices; graph has 21\n"
    )


def test_compseries_on_a_long_comb_in_output_sized_time(tmp_path, capsys):
    # a quotient graph built per step took 17.7 s on comb(1000), text and
    # --json alike, on a 2-core VM
    k = 1000
    path = tmp_path / "comb.json"
    path.write_text(render_document(comb(k)))
    # step i takes s(k-1-i), whose line ends at t(k-1-i) below k + 1 - i
    # paths, and H gains both vertices
    heads = [(f"s{k - 1 - i}", k + 1 - i) for i in range(k)]
    tails = [[f"{x}{j}" for x in "st" for j in range(k - i, k)] for i in range(k + 1)]

    start = time.perf_counter()
    assert main(["compseries", str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"length: {k}"
    assert lines[1 : k + 2] == [
        f"pair {i}: H={{{', '.join(h)}}} S={{}}" for i, h in enumerate(tails)
    ]
    assert lines[k + 2 :] == [f"factor {i}: size {n} at {v}" for i, (v, n) in enumerate(heads, 1)]

    start = time.perf_counter()
    assert main(["compseries", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["length"] == k
    assert doc["pairs"] == [{"h": h, "s": []} for h in tails]
    assert doc["factors"] == [{"size": n, "line_point": v} for v, n in heads]


def test_compseries_on_comb_2000_in_output_sized_time(tmp_path, capsys):
    # certifying each pair through admissible_pair, O(n + m) a step, took
    # 4.3 s here on a 2-core VM; the text itself is 27 MB
    k = 2000
    path = tmp_path / "comb.json"
    path.write_text(render_document(comb(k)))
    start = time.perf_counter()
    assert main(["compseries", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"length: {k}" and len(lines) == 2 * k + 2
    everything = ", ".join(f"{x}{j}" for x in "st" for j in range(k))
    assert lines[k + 1] == f"pair {k}: H={{{everything}}} S={{}}"
    assert lines[k + 2] == f"factor 1: size {k + 1} at s{k - 1}"
    assert lines[-1] == f"factor {k}: size 2 at s0"


def test_compseries_json_is_streamed_in_bounded_memory(tmp_path):
    # the whole 67 MB text, built in memory before printing, peaked at
    # 277 MB of RSS in a fresh process.  The command runs as the child of
    # a small interpreter: a process keeps the peak RSS of the one it was
    # started from, which here would be the test process's.
    path = tmp_path / "comb.json"
    path.write_text(render_document(comb(2000)))
    script = (
        "import resource, subprocess, sys\n"
        "command = [sys.executable, '-m', 'leavitt.cli', *sys.argv[1:]]\n"
        "subprocess.run(command, stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, "compseries", str(path), "--json"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
        check=True,
    )
    peak_kb = int(done.stdout)  # ru_maxrss is in kilobytes on Linux
    assert peak_kb < 150 * 1024


def fork(k):
    """A root r over two lines a0 -> ... -> a(k-1) and b0 -> ... -> b(k-1)."""
    lines = [[f"{x}{i}" for i in range(k)] for x in "ab"]
    bundles = [Bundle(f"r{x}", "r", line[0]) for x, line in zip("ab", lines)]
    for x, line in zip("ab", lines):
        bundles += [Bundle(f"{x}e{i}", line[i], line[i + 1]) for i in range(k - 1)]
    return Graph(("r",) + tuple(lines[0] + lines[1]), tuple(bundles))


def test_naimark_on_a_long_fork_in_linear_time(tmp_path, capsys):
    # saturating the tree of each of the 2k line points in turn took 21.5 s
    # on fork(2000) on a 2-core VM
    k = 2000
    path = tmp_path / "fork.json"
    path.write_text(render_document(fork(k)))

    start = time.perf_counter()
    assert main(["naimark", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "holds: no\nclasses: 2\n"

    start = time.perf_counter()
    assert main(["naimark", str(path), "--json"]) == 1
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["holds"], doc["witness"], doc["class_count"]) == (False, None, 2)

    assert main(["classes", str(path), "--json"]) == 0
    sizes = [c["size"] for c in json.loads(capsys.readouterr().out)["classes"]]
    assert sizes == [k + 1, k + 1]


def diamond_chain(k):
    """c0 => c1 => ... => ck, each step through a and b: |Lambda| = 2^(k+2) - 3."""
    bundles = []
    for i in range(k):
        bundles += [
            Bundle(f"p{i}", f"c{i}", f"a{i}"),
            Bundle(f"q{i}", f"c{i}", f"b{i}"),
            Bundle(f"x{i}", f"a{i}", f"c{i + 1}"),
            Bundle(f"y{i}", f"b{i}", f"c{i + 1}"),
        ]
    vertices = [f"c{i}" for i in range(k + 1)] + [f"{x}{i}" for x in "ab" for i in range(k)]
    return Graph(tuple(vertices), tuple(bundles))


def test_naimark_json_lists_lambda_in_output_sized_time(tmp_path, capsys):
    # sorting Lambda by path_key and rendering each member again took
    # 1.4-1.8 s in process on a 2-core VM
    k = 14
    path = tmp_path / "diamonds.json"
    path.write_text(render_document(diamond_chain(k)))

    start = time.perf_counter()
    assert main(["naimark", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_size"] == len(doc["lambda"]) == 2 ** (k + 2) - 3
    assert len(set(doc["lambda"])) == len(doc["lambda"])


def test_naimark_json_lists_lambda_of_a_16_diamond_chain_in_under_a_second(tmp_path, capsys):
    # listing every member as an edge tuple, a Path and a text took 1.4 s
    # in process on a 2-core VM
    k = 16
    path = tmp_path / "diamonds.json"
    path.write_text(render_document(diamond_chain(k)))

    start = time.perf_counter()
    assert main(["naimark", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_size"] == len(doc["lambda"]) == 2 ** (k + 2) - 3


def test_rep_on_a_large_block_in_linear_time(tmp_path, capsys):
    # one orbit walk per start of the 4,093-path block took 6.4 s in
    # process on a 2-core VM
    k = 10
    path = tmp_path / "diamonds.json"
    path.write_text(render_document(diamond_chain(k)))

    start = time.perf_counter()
    assert main(["rep", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    n = 2 ** (k + 2) - 3
    assert lines[0] == f"dimension: {n}"
    assert lines[3].startswith(f"block 0: size {n}, irreducible: yes, paths: ")
    assert lines[4:] == [f"algebra dimension: {n * n}"]


def test_rep_on_a_wide_star_in_linear_time(tmp_path, capsys):
    # the walks of each of the 6,000 blocks read every entry of p_r, and
    # the relation checks all of p_r per edge: 3.47 s in process
    k = 6000
    leaves = [f"t{i}" for i in range(k)]
    g = Graph(("r", *leaves), tuple(Bundle(f"e{i}", "r", t) for i, t in enumerate(leaves)))
    path = tmp_path / "star.json"
    path.write_text(render_document(g))

    start = time.perf_counter()
    assert main(["rep", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"dimension: {2 * k}" and lines[2] == "relations: verified"
    assert lines[3] == "block 0: size 2, irreducible: yes, paths: t0, e0"
    assert len(lines) == k + 4 and lines[-1] == f"algebra dimension: {k * 4}"


def patch_everywhere(monkeypatch, function, replacement):
    """Replace ``function`` under every name any leavitt module holds it by; return those names."""
    names = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "leavitt" or module_name.startswith("leavitt."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)
                    names.append(f"{module_name}.{attr}")
    return names


def naimark_outputs(capsys, *flags):
    outputs = {}
    for name in FIXTURES:
        code = main(["naimark", "--fixture", name, *flags])
        outputs[name] = code, capsys.readouterr()
    return outputs


def test_text_naimark_never_lists_lambda(monkeypatch, capsys):
    expected = naimark_outputs(capsys)

    def refuse(*args):
        raise AssertionError("text mode listed paths")

    patched = patch_everywhere(monkeypatch, leavitt.graph._tails, refuse)
    assert {"leavitt.graph._tails", "leavitt.algebra._tails"} <= set(patched)
    assert naimark_outputs(capsys) == expected
    assert expected["LINE3"][0] == 0


def test_json_naimark_lists_lambda_as_text_rows_only(monkeypatch, capsys):
    expected = naimark_outputs(capsys, "--json")
    walk, heads = leavitt.graph._tails, []

    def recording(g, order, stops, exits, head, empty):
        heads.append(head)
        return walk(g, order, stops, exits, head, empty)

    def refuse(*args):
        raise AssertionError("naimark --json built paths")

    assert "leavitt.graph._tails" in patch_everywhere(monkeypatch, walk, recording)
    patched = patch_everywhere(monkeypatch, leavitt.graph._paths_ending, refuse)
    assert {"leavitt.graph._paths_ending", "leavitt.repn._paths_ending"} <= set(patched)
    assert naimark_outputs(capsys, "--json") == expected
    assert heads and set(heads) == {leavitt.graph._text_head}
    doc = json.loads(expected["LINE3"][1].out)
    assert doc["lambda"] == ["u", "v", "w"] and doc["lambda_size"] == 3


# -- exit codes -------------------------------------------------------------------


def test_unexpected_exception_exits_2_with_internal_prefix(monkeypatch, capsys):
    def boom(g, args):
        raise RuntimeError("something broke")

    monkeypatch.setattr("leavitt.cli.cmd_analyze", boom)
    assert main(["analyze", "--fixture", "LINE3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal: RuntimeError: something broke\n"


def test_classes_on_many_fed_loops_in_linear_time(tmp_path, capsys):
    # each lone cycle's entering bundles came from a scan of every bundle:
    # 1.45 s at k = 4000 on a 2-core VM, growing as k^2
    k = 8000
    doc = {
        "vertices": [f"{x}{i}" for i in range(k) for x in "sc"],
        "edges": [
            edge
            for i in range(k)
            for edge in (
                {"name": f"f{i}", "source": f"s{i}", "range": f"c{i}"},
                {"name": f"l{i}", "source": f"c{i}", "range": f"c{i}"},
            )
        ],
    }
    path = tmp_path / "fed.json"
    path.write_text(json.dumps(doc))

    start = time.perf_counter()
    assert main(["classes", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["case: III", f"classes: {k}"]
    assert sorted(lines[2:]) == sorted(f"  (l{i})^oo: size 2" for i in range(k))
