"""File formats and report rendering, including the golden outputs."""

import json
from pathlib import Path

import pytest

from vbereq import (
    FormatError,
    SocialNetwork,
    evaluate,
    infer_format,
    load_network_text,
    parse_edge_list,
    parse_matrix_csv,
    render_metrics,
    render_report,
    report_document,
    serialize_edge_list,
    serialize_matrix_csv,
)

GOLDEN = Path(__file__).parent / "golden"


class TestMatrixFormat:
    def test_two_by_two_all_zero(self):
        net = parse_matrix_csv(",A,B\nA,X,0\nB,0,X\n")
        assert net.size == 2 and net.tie_count == 0

    def test_header_without_leading_comma(self):
        net = parse_matrix_csv("A,B\nA,X,1\nB,0,X\n")
        assert net.ties == {("A", "B")}

    def test_rows_may_be_permuted(self):
        net = parse_matrix_csv(",A,B\nB,1,X\nA,X,0\n")
        assert net.actors == ("A", "B")
        assert net.ties == {("B", "A")}

    def test_diagonal_zero_or_x_ignored(self):
        net = parse_matrix_csv(",A,B\nA,0,1\nB,1,x\n")
        assert net.ties == {("A", "B"), ("B", "A")}

    def test_non_binary_cell(self):
        with pytest.raises(FormatError, match="non-binary"):
            parse_matrix_csv(",A,B\nA,X,2\nB,0,X\n")

    def test_off_diagonal_x(self):
        with pytest.raises(FormatError, match="diagonal"):
            parse_matrix_csv(",A,B\nA,X,X\nB,0,X\n")

    def test_ragged_row(self):
        with pytest.raises(FormatError, match="cells"):
            parse_matrix_csv(",A,B\nA,X\nB,0,X\n")

    def test_duplicate_header_id(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_matrix_csv(",A,A\nA,X,0\nA,0,X\n")

    def test_duplicate_row(self):
        with pytest.raises(FormatError, match="duplicate row"):
            parse_matrix_csv(",A,B\nA,X,0\nA,X,0\n")

    def test_unknown_row_actor(self):
        with pytest.raises(FormatError, match="unknown row actor"):
            parse_matrix_csv(",A,B\nA,X,0\nC,0,X\n")

    @pytest.mark.parametrize(
        "text", ["\ufeff,A,B\nA,X,0\nB,0,X\n", "\ufeffA,B\nA,X,0\nB,0,X\n"]
    )
    def test_byte_order_mark_is_a_located_error(self, text):
        with pytest.raises(FormatError, match="line 1: .*format characters"):
            parse_matrix_csv(text)

    def test_missing_row(self):
        with pytest.raises(FormatError, match="expected 2 matrix rows"):
            parse_matrix_csv(",A,B\nA,X,0\n")

    def test_empty_file(self):
        with pytest.raises(FormatError, match="empty"):
            parse_matrix_csv("\n\n")

    def test_round_trip(self, steel10):
        assert parse_matrix_csv(serialize_matrix_csv(steel10)) == steel10

    def test_serialize_matches_bundled_file(self, steel10):
        bundled = (
            Path(__file__).parents[1] / "src" / "vbereq" / "fixtures" / "steel10.csv"
        ).read_text()
        assert serialize_matrix_csv(steel10) == bundled


class TestEdgeListFormat:
    def test_single_edge(self):
        net = parse_edge_list("A,B\n")
        assert net.actors == ("A", "B") and net.ties == {("A", "B")}

    def test_symmetric_mode(self):
        net = parse_edge_list("A,B\n", symmetric=True)
        assert net.ties == {("A", "B"), ("B", "A")}

    def test_actors_preamble_declares_isolates_and_order(self):
        net = parse_edge_list("actors: C,B,A\nA,B\n")
        assert net.actors == ("C", "B", "A")

    def test_preamble_must_come_first(self):
        with pytest.raises(FormatError, match="first"):
            parse_edge_list("A,B\nactors: A,B\n")

    def test_comments_and_blanks(self):
        net = parse_edge_list("# hi\n\nA,B\n")
        assert net.tie_count == 1

    def test_self_loop(self):
        with pytest.raises(FormatError, match="self-loop"):
            parse_edge_list("A,A\n")

    def test_malformed_line(self):
        with pytest.raises(FormatError, match="malformed"):
            parse_edge_list("A,B,C\n")
        with pytest.raises(FormatError, match="malformed"):
            parse_edge_list("A\n")

    def test_empty_file(self):
        with pytest.raises(FormatError, match="empty"):
            parse_edge_list("# nothing\n")

    def test_byte_order_mark_is_a_located_error(self):
        with pytest.raises(FormatError, match="line 1: .*format characters"):
            parse_edge_list("\ufeffA,B\nB,A\n")

    def test_duplicate_preamble_id(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_edge_list("actors: A,A\n")

    def test_round_trip(self, steel10):
        text = serialize_edge_list(steel10)
        assert parse_edge_list(text) == steel10
        assert serialize_edge_list(parse_edge_list(text)) == text

    def test_symmetric_round_trip(self, wholesale):
        text = serialize_edge_list(wholesale, symmetric=True)
        assert parse_edge_list(text, symmetric=True) == wholesale

    def test_symmetric_serialize_rejects_asymmetric(self):
        net = SocialNetwork(("A", "B"), frozenset({("A", "B")}))
        with pytest.raises(FormatError, match="not reciprocated"):
            serialize_edge_list(net, symmetric=True)

    def test_serialize_matches_bundled_file(self, wholesale):
        bundled = (
            Path(__file__).parents[1] / "src" / "vbereq" / "fixtures" / "wholesale.edges"
        ).read_text()
        # the bundled file carries a comment header; the canonical body follows it
        body = "".join(
            line + "\n" for line in bundled.splitlines() if not line.startswith("#")
        )
        assert serialize_edge_list(wholesale, symmetric=True) == body


class TestLoadHelpers:
    def test_format_inference(self):
        assert infer_format("x/net.csv") == "matrix"
        assert infer_format("net.edges") == "edges"
        assert infer_format("net.EDGELIST") == "edges"
        assert infer_format("net.txt") == "edges"
        with pytest.raises(FormatError, match="infer"):
            infer_format("net.xlsx")

    def test_load_network_text(self):
        net = load_network_text("A,B\n", "edges")
        assert net.tie_count == 1
        with pytest.raises(FormatError, match="unknown network format"):
            load_network_text("A,B\n", "sociogram")


class TestReportRendering:
    def test_json_is_deterministic(self, steel10, steel_vbe_reqs):
        a = render_report(evaluate(steel10, steel_vbe_reqs, network_name="steel10"), "json")
        b = render_report(evaluate(steel10, steel_vbe_reqs, network_name="steel10"), "json")
        assert a == b

    def test_json_shape(self, steel10, steel_vbe_reqs):
        doc = json.loads(render_report(evaluate(steel10, steel_vbe_reqs), "json"))
        assert doc["overall"] is True
        assert doc["verdicts"][3]["witnesses"] == ["B", "E", "G"]
        assert doc["verdicts"][1]["observed"][0]["value"] == "51/90"
        assert doc["verdicts"][1]["observed"][0]["decimal"] == "0.5667"
        assert doc["verdicts"][1]["observed"][0]["percent"] == "57%"
        assert doc["role_candidacies"]["broker"] == ["B", "E"]
        assert "peel_trace" not in doc

    def test_unknown_format(self, steel10, steel_vbe_reqs):
        with pytest.raises(ValueError, match="report format"):
            render_report(evaluate(steel10, steel_vbe_reqs), "xml")

    def test_golden_steel_text(self, steel10, steel_vbe_reqs, monkeypatch):
        monkeypatch.delenv("VBE_COLOR", raising=False)
        report = evaluate(steel10, steel_vbe_reqs, network_name="steel10")
        assert render_report(report, "text") == (GOLDEN / "steel10_steel_vbe.txt").read_bytes()

    def test_golden_steel_json(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs, network_name="steel10")
        assert render_report(report, "json") == (GOLDEN / "steel10_steel_vbe.json").read_bytes()

    def test_golden_wholesale_failure(self, wholesale, wholesaler_reqs, monkeypatch):
        monkeypatch.delenv("VBE_COLOR", raising=False)
        sub = wholesale.induced(("A", "F", "I", "J"))
        report = evaluate(
            sub,
            wholesaler_reqs,
            anchor="A",
            parent=wholesale,
            network_name="wholesale[A,F,I,J]",
            view="undirected",
        )
        assert render_report(report, "text") == (GOLDEN / "wholesale_afij.txt").read_bytes()

    def test_peel_trace_in_json(self, steel10, steel_vbe_reqs):
        from dataclasses import replace

        report = replace(evaluate(steel10, steel_vbe_reqs), peel_trace=("F",))
        doc = json.loads(render_report(report, "json"))
        assert doc["peel_trace"] == ["F"]


class TestMetricsRendering:
    def test_golden_metrics_text(self, steel10):
        rendered = render_metrics(steel10, "steel10")
        assert rendered == (GOLDEN / "steel10_metrics.txt").read_bytes()

    def test_metrics_json(self, steel10):
        doc = json.loads(render_metrics(steel10, "steel10", format="json"))
        assert doc["size"] == 10
        assert doc["density"]["value"] == "51/90"
        assert doc["reachable_fraction"] == "1"
        by_id = {row["id"]: row for row in doc["actors"]}
        assert by_id["E"]["in_degree"] == 9
        assert by_id["E"]["in_density"]["percent"] == "100%"
        assert by_id["A"]["eccentricity"] == 3

    def test_metrics_modes_and_views(self):
        net = SocialNetwork(("A", "B", "C"), frozenset({("A", "B")}))
        strict = json.loads(render_metrics(net, "n", format="json"))
        assert strict["avg_path_length"]["value"] == "undefined"
        lenient = json.loads(render_metrics(net, "n", mode="lenient", format="json"))
        assert lenient["avg_path_length"]["value"] == "1/1"
        assert lenient["reachable_fraction"] == "1/6"

    def test_unknown_format(self, steel10):
        with pytest.raises(ValueError, match="metrics format"):
            render_metrics(steel10, "x", format="pdf")
