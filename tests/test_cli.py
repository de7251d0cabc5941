"""CLI subcommands, exit codes, and the cycle-notation parser."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamvt import (BadParams, HamiltonCertificate, Perm, catalog,
                   catalog_gens, verify_hamilton)
from hamvt.cli import (EXIT_FOUND, EXIT_INPUT, EXIT_INTERNAL, EXIT_NONE,
                       EXIT_UNKNOWN, main)
from hamvt.pipeline import (MalformedInput, graph_from_json, group_from_json,
                            parse_cycle_notation)
from test_lift import km_c3


class TestCycleNotation:
    def test_basic(self):
        assert parse_cycle_notation("(0 1 2)(3 4)", 5) == Perm((1, 2, 0, 4, 3))

    def test_commas(self):
        assert parse_cycle_notation("(0,1)(2,3)", 4) == Perm((1, 0, 3, 2))

    def test_identity(self):
        assert parse_cycle_notation("()", 3).is_identity()
        assert parse_cycle_notation("", 3).is_identity()

    def test_errors(self):
        with pytest.raises(MalformedInput):
            parse_cycle_notation("(0 1", 3)
        with pytest.raises(MalformedInput):
            parse_cycle_notation("(0 0)", 3)
        with pytest.raises(MalformedInput):
            parse_cycle_notation("(0 7)", 3)

    @pytest.mark.parametrize("text", ["(0 1 2)(0 2 1)", "(0 1)(1 2)",
                                      "(0 1)(2 3)(3 0)", "(0 1)(1 0)"])
    def test_point_in_two_cycles(self, text):
        # read as a product, "(0 1 2)(0 2 1)" is the identity, not (0 2 1)
        with pytest.raises(MalformedInput, match="repeated point"):
            parse_cycle_notation(text, 4)


def write_graph(path, X):
    path.write_text(json.dumps(
        {"n": X.n, "edges": [list(e) for e in X.edges()]}))


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog", "petersen"]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 10 and len(out["edges"]) == 15

    def test_catalog_unknown(self, capsys):
        assert main(["catalog", "zorp"]) == EXIT_INPUT

    @pytest.mark.parametrize("name", [
        "petersen:3", "coxeter:1", "truncated_petersen:2",
        "truncated_coxeter:0", "heawood:9", "non_incidence_pg22:x",
    ])
    def test_fixed_entries_reject_parameters(self, name, capsys):
        with pytest.raises(BadParams):
            catalog(name)
        with pytest.raises(BadParams):
            catalog_gens(name)
        assert main(["catalog", name]) == EXIT_INPUT

    def test_solve_found(self, tmp_path, capsys):
        assert main(["solve", "--catalog", "complete:5"]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "found"

    def test_solve_none(self, capsys):
        assert main(["solve", "--catalog", "petersen"]) == EXIT_NONE

    def test_solve_path(self, capsys):
        assert main(["solve", "--path", "--catalog", "petersen"]) == EXIT_FOUND

    def test_solve_budget_unknown(self, capsys):
        assert main(["--budget", "5", "solve", "--catalog",
                     "truncated_petersen"]) == EXIT_UNKNOWN

    def test_verify(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        write_graph(g, catalog("circulant:6:1"))
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"kind": "cycle",
                                 "sequence": [0, 1, 2, 3, 4, 5]}))
        assert main(["verify", "--graph", str(g),
                     "--certificate", str(c)]) == EXIT_FOUND
        c.write_text(json.dumps({"kind": "cycle",
                                 "sequence": [0, 2, 1, 3, 4, 5]}))
        assert main(["verify", "--graph", str(g),
                     "--certificate", str(c)]) == EXIT_NONE

    def test_analyze_catalog_gens(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["--json-out", str(out), "analyze",
                   "--catalog", "truncated_petersen"])
        assert rc == EXIT_NONE
        rep = json.loads(out.read_text())
        assert rep["result"] == "no_hamilton_cycle"
        assert rep["exception_flag"] is True

    def test_analyze_catalog_builds_once(self, monkeypatch, capsys):
        from hamvt import products
        build, calls = products._CATALOG["prism"], []

        def counted(t):
            calls.append(t)
            return build(t)

        monkeypatch.setitem(products._CATALOG, "prism", counted)
        assert main(["analyze", "--catalog", "prism:5"]) == EXIT_FOUND
        assert calls == [5]

    def test_output_is_one_compact_line(self, tmp_path, capsys):
        from hamvt import analyze
        out = tmp_path / "r.json"
        assert main(["--json-out", str(out), "analyze",
                     "--catalog", "prism:5"]) == EXIT_FOUND
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("\n")
        assert out.read_text() == text
        report = analyze(catalog("prism:5"), catalog_gens("prism:5"))
        assert json.loads(text) == json.loads(json.dumps(report.to_json()))

    def test_analyze_group_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        write_graph(g, catalog("circulant:30:1,6"))
        grp = tmp_path / "grp.json"
        rot = "(" + " ".join(str(i) for i in range(30)) + ")"
        grp.write_text(json.dumps({"degree": 30, "generators": [rot]}))
        assert main(["analyze", "--graph", str(g),
                     "--group", str(grp)]) == EXIT_FOUND

    def test_analyze_coboundary_lift(self, tmp_path, capsys):
        # the enumeration of K_12's quotient cycles needs more than 10^7
        # nodes; the coboundary proof needs none
        X, rho = km_c3(12)
        g = tmp_path / "g.json"
        write_graph(g, X)
        grp = tmp_path / "grp.json"
        grp.write_text(json.dumps({"degree": X.n,
                                   "generators": [list(rho.images)]}))
        assert main(["--budget", "1000", "analyze", "--graph", str(g),
                     "--group", str(grp)]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        cert = HamiltonCertificate.from_json(out["certificate"])
        assert verify_hamilton(X, cert)
        outcomes = {s["strategy"]: s["outcome"]
                    for s in out["strategy_trace"]}
        assert outcomes["lift_p3"] == "no lift (voltages are a coboundary)"

    def test_analyze_bad_group(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        write_graph(g, catalog("petersen"))
        grp = tmp_path / "grp.json"
        grp.write_text(json.dumps({"degree": 10, "generators": ["(0 1)"]}))
        assert main(["analyze", "--graph", str(g),
                     "--group", str(grp)]) == EXIT_INPUT

    @pytest.mark.parametrize("graph, group", [
        ({"n": 4, "edges": [[0, 1], [2, 3]]},
         {"degree": 4, "generators": ["(0 1 2 3)"]}),
        ({"n": 4, "edges": [[0, 1], [2, 3]]},
         {"degree": 5, "generators": []}),
        ({"n": 2, "edges": [[0, 1]]}, {"degree": 5, "generators": []}),
        ({"n": 2, "edges": [[0, 1]]}, {"degree": 5, "generators": ["(0 1)"]}),
        ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
         {"degree": 4, "generators": []}),
    ], ids=["disconnected-not-automorphism", "disconnected-degree",
            "K_2-degree-no-generators", "K_2-degree", "K_3-degree"])
    def test_analyze_bad_group_for_every_graph(self, graph, group, tmp_path,
                                               capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        grp = tmp_path / "grp.json"
        grp.write_text(json.dumps(group))
        assert main(["analyze", "--graph", str(g),
                     "--group", str(grp)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("graph, group", [
        ({"n": 4.9, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}, None),
        ({"n": 4, "edges": [[0.7, 1], [1, 2], [2, 3], [3, 0]]}, None),
        ({"n": True, "edges": []}, None),
        ({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
         {"degree": 4.7, "generators": []}),
        ({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
         {"degree": 4, "generators": [[1, 2, 3, 0.5]]}),
    ], ids=["n_float", "edge_float", "n_bool", "degree_float",
            "image_float"])
    def test_analyze_non_integer_json(self, graph, group, tmp_path, capsys):
        with pytest.raises(MalformedInput):
            if group is None:
                graph_from_json(graph)
            else:
                group_from_json(group)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph))
        argv = ["analyze", "--graph", str(g)]
        if group is not None:
            grp = tmp_path / "grp.json"
            grp.write_text(json.dumps(group))
            argv += ["--group", str(grp)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["orbital", "--selection", "1"],
        ["analyze", "--catalog", "petersen"],
    ], ids=["orbital", "analyze"])
    def test_point_in_two_cycles(self, argv, tmp_path, capsys):
        grp = tmp_path / "grp.json"
        grp.write_text(json.dumps(
            {"degree": 10, "generators": ["(0 1 2 3 4)(0 4 3 2 1)"]}))
        assert main(argv + ["--group", str(grp)]) == EXIT_INPUT
        assert "repeated point" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["orbital", "--selection", "1"],
        ["analyze", "--catalog", "petersen"],
    ], ids=["orbital", "analyze"])
    def test_negative_group_degree(self, argv, tmp_path, capsys):
        grp = tmp_path / "grp.json"
        grp.write_text(json.dumps({"degree": -2, "generators": []}))
        assert main(argv + ["--group", str(grp)]) == EXIT_INPUT
        assert "degree -2 is negative" in capsys.readouterr().err

    def test_orbital(self, tmp_path, capsys):
        grp = tmp_path / "d5.json"
        grp.write_text(json.dumps(
            {"degree": 5, "generators": ["(0 1 2 3 4)", "(1 4)(2 3)"]}))
        assert main(["orbital", "--group", str(grp), "--point", "0",
                     "--selection", "1"]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, out["graph"]["edges"])) == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("flags", [
        ["--point", "0", "--selection", "-1"],
        ["--point", "0", "--selection", "7"],
        ["--point", "9", "--selection", "1"],
    ], ids=["negative_selection", "selection_7", "point_9"])
    def test_orbital_bad_input(self, flags, tmp_path, capsys):
        grp = tmp_path / "d5.json"
        grp.write_text(json.dumps(
            {"degree": 5, "generators": ["(0 1 2 3 4)", "(1 4)(2 3)"]}))
        assert main(["orbital", "--group", str(grp)] + flags) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_field(self, capsys):
        assert main(["field", "--k", "4"]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == 16 and len(out["rows"]) == 15
        assert out["min_count"] >= 2
        assert all(r["weil_d6"] for r in out["rows"])

    def test_field_k12(self, capsys):
        assert main(["field", "--k", "12"]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == 4096 and len(out["rows"]) == 4095
        assert all(r["weil_d6"] for r in out["rows"])

    @pytest.mark.parametrize("flags", [[], ["--m", "0"]])
    def test_field_k1(self, flags, capsys):
        # GF(2) has one nonzero element, and x^2 + x + 1 has no root in it
        assert main(["field", "--k", "1"] + flags) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert (out["q"], out["m"], out["min_count"]) == (2, 0, 3)
        assert out["rows"] == [{"c": 1, "count": 3, "weil_d6": True}]

    @pytest.mark.parametrize("k", [1, 6, 7])
    def test_field_rows_match_per_c_counts(self, k, capsys):
        from hamvt import count_eq2, field_make, quad_irreducible_m
        assert main(["field", "--k", str(k)]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        F = field_make(k)
        m = quad_irreducible_m(F)
        assert [r["count"] for r in out["rows"]] == [
            count_eq2(F, m, c) for c in range(1, F.q)]
        assert out["min_count"] == min(r["count"] for r in out["rows"])

    def test_missing_graph_source(self, capsys):
        assert main(["solve"]) == EXIT_INPUT

    def test_missing_file(self, capsys):
        assert main(["solve", "--graph", "/nonexistent.json"]) == EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ["solve", "--graph"],
        ["analyze", "--catalog", "petersen", "--group"],
        ["verify", "--catalog", "petersen", "--certificate"],
    ])
    def test_directory_is_input_error(self, argv, tmp_path, capsys):
        assert main(argv + [str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cannot read" in err and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["--budget", "abc", "solve", "--catalog", "petersen"],
        ["--budget", "0", "solve", "--catalog", "petersen"],
        ["--budget", "-5", "solve", "--catalog", "petersen"],
        ["field"],
        ["solve", "--catalog", "petersen", "--no-such-flag"],
        [],
    ])
    def test_usage_error_is_input_error(self, argv, capsys):
        # argparse's own exit status, 2, would read as "unknown"
        assert main(argv) == EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == EXIT_FOUND
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("cert", [
        {"sequence": [0, 1, 2, 3, 4, 5]},
        {"kind": "tour", "sequence": [0, 1, 2, 3, 4, 5]},
        {"kind": "cycle", "sequence": 7},
        {"kind": "cycle", "sequence": [0, 1, "2", 3, 4, 5]},
        [0, 1, 2, 3, 4, 5],
        {"kind": "cycle", "sequence": [0, 1, 2.0, 3, 4, 5]},
        {"kind": "cycle", "sequence": [0, True, 2, 3, 4, 5]},
    ])
    def test_verify_malformed_certificate(self, cert, tmp_path, capsys):
        c = tmp_path / "c.json"
        c.write_text(json.dumps(cert))
        assert main(["verify", "--catalog", "circulant:6:1",
                     "--certificate", str(c)]) == EXIT_INPUT
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--path"]])
    def test_solve_long_cycle(self, flags, capsys):
        # deeper than the interpreter's default recursion limit
        name = "circulant:1100:1"
        assert main(["solve", *flags, "--catalog", name]) == EXIT_FOUND
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "found"
        cert = HamiltonCertificate.from_json(out["certificate"])
        assert verify_hamilton(catalog(name), cert)

    def test_internal_error_is_not_a_verdict(self, monkeypatch, capsys):
        def crash(X, budget):
            raise RuntimeError("solver fault")

        monkeypatch.setattr("hamvt.cli.find_hamilton_cycle", crash)
        assert main(["solve", "--catalog", "petersen"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


def test_import_leaves_numpy_unloaded():
    # numpy is most of the start-up time, and only gf2k's counts use it
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, hamvt.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
