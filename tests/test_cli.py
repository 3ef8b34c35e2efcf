"""Command line interface: subcommands, exit codes, output formats."""

import json
import sys
from pathlib import Path

import pytest

from vbereq import evaluate, parse_requirements
from vbereq.cli import main
from vbereq.fixtures import load_steel10, load_wholesale
from vbereq.render import render_report

FIXTURES = Path(__file__).parents[1] / "src" / "vbereq" / "fixtures"
STEEL_CSV = str(FIXTURES / "steel10.csv")
WHOLESALE_EDGES = str(FIXTURES / "wholesale.edges")
STEEL_REQ = str(FIXTURES / "steel_vbe.req")
WHOLESALER_REQ = str(FIXTURES / "wholesaler.req")


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("VBE_COLOR", raising=False)


class TestMetricsCommand:
    def test_text_output(self, capsys):
        assert main(["metrics", "--network", STEEL_CSV]) == 0
        out = capsys.readouterr().out
        assert out.startswith("network: steel10\nview: directed\n")
        assert "density: 51/90 (0.5667, 57%)" in out
        golden = Path(__file__).parent / "golden" / "steel10_metrics.txt"
        assert out.encode() == golden.read_bytes()

    def test_json_output(self, capsys):
        assert main(["metrics", "--network", STEEL_CSV, "--out", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 10
        assert doc["view"] == "directed"

    def test_undirected_view(self, capsys):
        assert main(["metrics", "--network", WHOLESALE_EDGES, "--undirected"]) == 0
        doc_out = capsys.readouterr().out
        assert "view: undirected" in doc_out

    def test_undirected_edge_list_gains_both_directions(self, capsys):
        assert main(["metrics", "--network", WHOLESALE_EDGES, "--undirected"]) == 0
        out = capsys.readouterr().out
        assert "density: 18/90 (0.2000, 20%)\n" in out
        assert "recip_ratio: 18/18 (1, 100%)\n" in out

    def test_lenient_mode(self, capsys):
        edges = "A,B\n"
        path = Path(__file__).parent / "golden"
        tmp = path / "_scratch.edges"
        try:
            tmp.write_text(edges)
            assert main(["metrics", "--network", str(tmp), "--mode", "lenient", "--out", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["avg_path_length"]["value"] == "1/1"
        finally:
            tmp.unlink(missing_ok=True)

    def test_missing_file(self, capsys):
        assert main(["metrics", "--network", "/nonexistent/net.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_extension_needs_format(self, tmp_path, capsys):
        weird = tmp_path / "net.dat"
        weird.write_text("A,B\n")
        assert main(["metrics", "--network", str(weird)]) == 2
        assert "--format" in capsys.readouterr().err
        assert main(["metrics", "--network", str(weird), "--format", "edges"]) == 0


class TestCheckCommand:
    def test_satisfied_exits_zero(self, capsys):
        rc = main(["check", "--network", STEEL_CSV, "--requirements", STEEL_REQ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.endswith("overall: PASS\n")

    def test_violated_exits_one(self, capsys):
        rc = main(
            [
                "check",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--actors", "A,F,I,J",
                "--anchor", "A",
                "--undirected",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "violators: J (neighborhood_size=1, required >1)" in out
        assert out.endswith("overall: FAIL\n")

    def test_actors_subset_with_parent_file(self, capsys):
        rc = main(
            [
                "check",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--actors", "A,C,E,F",
                "--anchor", "A",
                "--undirected",
                "--out", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] is True
        assert doc["network"] == "wholesale[A,C,E,F]"
        assert doc["anchor"] == "A"

    @pytest.mark.parametrize("out", ["text", "json"])
    @pytest.mark.parametrize(
        "network, load, reqs, subset, name, extra",
        [
            (STEEL_CSV, load_steel10, STEEL_REQ, "B,E,G,A,C", "steel10[A,B,C,E,G]", []),
            (WHOLESALE_EDGES, load_wholesale, WHOLESALER_REQ, "A,C,E,F",
             "wholesale[A,C,E,F]", ["--anchor", "A", "--undirected"]),
        ],
        ids=["steel10", "wholesale"],
    )
    def test_actors_checks_the_subnetwork_of_the_loaded_network(
        self, network, load, reqs, subset, name, extra, out, capsys
    ):
        argv = ["check", "--network", network, "--requirements", reqs,
                "--actors", subset, "--out", out, *extra]
        rc = main(argv)
        net = load()
        report = evaluate(
            net.induced(subset.split(",")),
            parse_requirements(Path(reqs).read_text()),
            "A" if extra else None,
            parent=net,
            network_name=name,
            view="undirected" if extra else "directed",
        )
        assert capsys.readouterr().out.encode() == render_report(report, out)
        assert rc == (0 if report.overall else 1)

    def test_actors_name_the_subnetwork_as_search_does(self, capsys):
        # Typed out of order and with A twice, the ids still name the
        # evaluated subnetwork: parent order, each actor once.
        common = ["--network", WHOLESALE_EDGES, "--requirements", WHOLESALER_REQ,
                  "--anchor", "A", "--undirected"]
        assert main(["check", *common, "--actors", "F,E,A,C,A"]) == 0
        checked = capsys.readouterr().out
        assert main(["search", *common, "--min-size", "4", "--max-size", "4"]) == 0
        found = capsys.readouterr().out
        assert checked.startswith("network: wholesale[A,C,E,F]\n")
        assert "network: wholesale[A,C,E,F]\n" in found

    def test_there_is_no_parent_option(self, capsys):
        # The README's subnetwork check, with the parent given a second time.
        argv = [
            "check",
            "--network", WHOLESALE_EDGES,
            "--requirements", WHOLESALER_REQ,
            "--actors", "A,C,E,F",
            "--anchor", "A",
            "--undirected",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--parent", WHOLESALE_EDGES]) == 2
        assert "unrecognized arguments: --parent" in capsys.readouterr().err
        assert main(["check", "--help"]) == 0
        assert "--parent" not in capsys.readouterr().out

    def test_anchor_required_when_set_needs_one(self, capsys):
        rc = main(
            ["check", "--network", WHOLESALE_EDGES, "--requirements", WHOLESALER_REQ]
        )
        assert rc == 2
        assert "anchor" in capsys.readouterr().err

    def test_unknown_actor_in_subset(self, capsys):
        rc = main(
            [
                "check",
                "--network", STEEL_CSV,
                "--requirements", STEEL_REQ,
                "--actors", "A,Z",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_requirements_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.req"
        bad.write_text("require density > 50\n")
        rc = main(["check", "--network", STEEL_CSV, "--requirements", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "%" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no integer digit limit",
    )
    def test_over_long_number_is_a_syntax_error(self, tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 700
        bad = tmp_path / "long.req"
        bad.write_text(f"require a : size >= {'9' * digits}\n")
        rc = main(["check", "--network", STEEL_CSV, "--requirements", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 1")


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--network", STEEL_CSV],
            ["metrics", "--network", WHOLESALE_EDGES, "--out", "json"],
            [
                "check",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--actors", "A,F,I,J",
                "--anchor", "A",
                "--undirected",
            ],
        ],
    )
    def test_bom_files_read_like_plain_ones(self, argv, tmp_path, capsys):
        plain_rc = main(argv)
        plain = capsys.readouterr()
        bom_argv = []
        for arg in argv:
            if Path(arg).is_file():
                copy = tmp_path / Path(arg).name
                copy.write_bytes(b"\xef\xbb\xbf" + Path(arg).read_bytes())
                arg = str(copy)
            bom_argv.append(arg)
        assert main(bom_argv) == plain_rc
        assert capsys.readouterr() == plain


class TestRolesCommand:
    def test_all_roles_text(self, capsys):
        assert main(["roles", "--network", STEEL_CSV]) == 0
        out = capsys.readouterr().out
        assert "member: A, B, C, D, E, F, G, H, I, J\n" in out
        assert "planner: B, E\n" in out
        assert "broker: B, E\n" in out

    def test_single_role(self, capsys):
        assert main(["roles", "--network", STEEL_CSV, "--role", "planner"]) == 0
        out = capsys.readouterr().out
        assert "planner: B, E" in out
        assert "broker" not in out

    def test_members_only_screening(self, capsys):
        assert main(["roles", "--network", STEEL_CSV, "--members-only", "--out", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["roles"]["planner"] == ["B", "E"]

    def test_json_single_role(self, capsys):
        assert main(["roles", "--network", STEEL_CSV, "--role", "broker", "--out", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"network": "steel10", "roles": {"broker": ["B", "E"]}}


class TestSearchCommand:
    def test_exhaustive_solution(self, capsys):
        rc = main(
            [
                "search",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--anchor", "A",
                "--min-size", "4",
                "--max-size", "4",
                "--undirected",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("solution: A, C, E, F (size=4, 3 alternatives)\n")
        assert "overall: PASS" in out

    def test_json_solution(self, capsys):
        rc = main(
            [
                "search",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--anchor", "A",
                "--min-size", "4",
                "--max-size", "4",
                "--undirected",
                "--out", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solution"] == ["A", "C", "E", "F"]
        assert doc["objective"] == "size"
        assert doc["objective_value"] == 4
        assert doc["alternatives"] == 3
        assert doc["report"]["overall"] is True

    def test_no_solution_exits_one(self, capsys):
        rc = main(
            [
                "search",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--anchor", "B",
                "--min-size", "4",
                "--max-size", "4",
                "--undirected",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().out == "no solution found\n"

    def test_no_solution_json(self, capsys):
        rc = main(
            [
                "search",
                "--network", WHOLESALE_EDGES,
                "--requirements", WHOLESALER_REQ,
                "--anchor", "B",
                "--min-size", "4",
                "--max-size", "4",
                "--undirected",
                "--out", "json",
            ]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().out) == {"solution": None}

    def test_peel_mode(self, capsys):
        rc = main(
            [
                "search",
                "--network", STEEL_CSV,
                "--requirements", STEEL_REQ,
                "--min-size", "5",
                "--max-size", "10",
                "--mode", "peel",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "solution: A, B, C, D, E, F, G, H, I, J (size=10, 0 alternatives)\n" in out
        assert "peeled: (none)" in out

    def test_bad_bounds(self, capsys):
        rc = main(
            [
                "search",
                "--network", STEEL_CSV,
                "--requirements", STEEL_REQ,
                "--min-size", "6",
                "--max-size", "5",
            ]
        )
        assert rc == 2
        assert "min_size" in capsys.readouterr().err

    def test_cap_exceeded(self, capsys):
        rc = main(
            [
                "search",
                "--network", STEEL_CSV,
                "--requirements", STEEL_REQ,
                "--min-size", "1",
                "--max-size", "10",
                "--cap", "3",
            ]
        )
        assert rc == 2
        assert "cap" in capsys.readouterr().err


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VBE_COLOR", "1")
        main(["check", "--network", STEEL_CSV, "--requirements", STEEL_REQ])
        out = capsys.readouterr().out
        assert "\x1b[32mPASS\x1b[0m" in out
