"""JSON ingestion, report commands, exit codes."""

import json

import pytest

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


def test_rep_json(capsys):
    assert main(["rep", "--fixture", "FORK", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 4
    assert [b["size"] for b in doc["blocks"]] == [2, 2]
    assert all(b["irreducible"] for b in doc["blocks"])
    matrix = doc["generators"]["p_u"]
    assert sum(sum(row) for row in matrix) == 2


def test_json_output_is_stable(capsys):
    assert main(["compseries", "--fixture", "OMEGA2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compseries", "--fixture", "OMEGA2", "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["length"] == 3
    assert doc["factors"][1] == {"size": "omega", "line_point": "w"}


# -- long inputs ---------------------------------------------------------------


def test_long_line_has_no_recursion_ceiling(tmp_path, capsys):
    n = 1500
    doc = {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [
            {"name": f"e{i}", "source": f"v{i}", "range": f"v{i + 1}"}
            for i in range(n - 1)
        ],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))

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


# -- exit codes -------------------------------------------------------------------


def test_unexpected_exception_exits_2_with_internal_prefix(monkeypatch, capsys):
    def boom(g, args):
        raise RuntimeError("something broke")

    monkeypatch.setattr("leavitt.cli.cmd_analyze", boom)
    assert main(["analyze", "--fixture", "LINE3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal: RuntimeError: something broke\n"
