import io

import pytest

from conftest import ORDER8_CONJECTURE2_FLAGS
from forestcut import cli
from forestcut.constructions import conjecture2_family
from forestcut.graph import parse_graph6, write_graph6
from forestcut.planar import octahedron_triangulation, write_rotation_system
from forestcut.verify import CLAIM_NAMES, Density, canonical_graph6


def run_lines(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


class TestThresholdGrammar:
    def test_known_densities(self):
        assert Density.parse("11/5n-18/5") == Density(11, -18, 5)
        assert Density.parse("3n-6") == Density(3, -6, 1)
        assert Density.parse("2*n-3") == Density(2, -3, 1)
        assert Density.parse("7/3n") == Density(7, 0, 3)

    def test_bad_expression(self):
        with pytest.raises(ValueError):
            Density.parse("n^2")

    @pytest.mark.parametrize("text", ["1/0n", "2n-3/0"])
    def test_zero_denominator(self, capsys, text):
        with pytest.raises(ValueError):
            Density.parse(text)
        code = cli.run(["enumerate", "--n", "4", "--max-edges-lt", text])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestCheckCommand:
    def test_forest_cut_on_edges_file(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        code, lines = run_lines(
            capsys, ["check", "--input", str(path), "--format", "edges"]
        )
        assert code == 0
        assert lines == ["witness 1 3", "kind forest", "separates 0 2"]
        code, lines = run_lines(
            capsys, ["check", "--input", str(path), "--format", "edges", "--exhaustive"]
        )
        assert code == 0
        assert lines == ["witness 0 2", "kind forest", "separates 1 3"]

    def test_exhaustive_flag(self, capsys, tmp_path):
        path = tmp_path / "octa.g6"
        from forestcut.constructions import fixture

        path.write_text(write_graph6(fixture("octahedron")) + "\n")
        code, lines = run_lines(capsys, ["check", "--input", str(path), "--exhaustive"])
        assert code == 0
        assert lines == ["NONE"]

    def test_independent_avoiding(self, capsys, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text("Cr\n")  # C4 in graph6
        code, lines = run_lines(
            capsys,
            ["check", "--input", str(path), "--kind", "independent", "--avoid", "0"],
        )
        assert code == 0
        assert lines[0].startswith("witness")
        assert "0" not in lines[0].split()[1:]

    def test_disconnected_graph_rejected_with_reason(self, capsys, monkeypatch):
        # EwCW is two triangles: the empty set already separates it
        monkeypatch.setattr("sys.stdin", io.StringIO("EwCW\n"))
        code = cli.run(["check", "--input", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: cut search requires a connected graph; "
            "the empty set separates a disconnected one\n"
        )


class TestSingleGraphInput:
    @pytest.mark.parametrize("command", ["check", "audit"])
    def test_more_than_one_graph6_line(self, capsys, tmp_path, command):
        path = tmp_path / "two.g6"
        path.write_text("C~\n\nCr\n")
        code = cli.run([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "expected one graph6 line, got 2" in captured.err


class TestEnumerateCommand:
    def test_census_via_filters(self, capsys):
        code, lines = run_lines(
            capsys,
            ["enumerate", "--n", "6", "--min-connectivity", "3",
             "--max-edges-lt", "11/5n-18/5"],
        )
        assert code == 0
        assert len(lines) == 2
        assert all(parse_graph6(ln).order == 6 for ln in lines)

    def test_negative_connectivity_exit_2(self, capsys):
        # rejected even when the density filter would drop every graph first
        argv = ["enumerate", "--n", "3", "--min-connectivity", "-1", "--max-edges-lt", "0n"]
        assert cli.run(argv) == 2
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_theorem2_builtin_small(self, capsys):
        code, lines = run_lines(capsys, ["verify", "--claim", "theorem2", "--builtin-n", "6"])
        assert code == 0
        assert lines == ["theorem2 builtin-n6 112 0"]

    def test_theorem2_builtin_full_order_7(self, capsys):
        code, lines = run_lines(capsys, ["verify", "--claim", "theorem2", "--builtin-n", "7"])
        assert code == 0
        assert lines == ["theorem2 builtin-n7 853 0"]

    def test_corpus_file(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\nCr\n")
        code, lines = run_lines(capsys, ["verify", "--claim", "chenyu", "--input", str(path)])
        assert code == 0
        assert lines[0].endswith(" 2 0")

    @pytest.mark.parametrize("claim", CLAIM_NAMES)
    def test_mixed_corpus_with_disconnected_graphs(self, capsys, tmp_path, claim):
        # EwCW (two triangles) and Cg are disconnected: scanned, never flagged
        path = tmp_path / "mixed.g6"
        graphs = ["EwCW", "Cg", "DhC", "C~", "Cr", *ORDER8_CONJECTURE2_FLAGS]
        path.write_text("".join(g6 + "\n" for g6 in graphs))
        argv = ["verify", "--claim", claim, "--input", str(path), "--workers"]
        code, lines = run_lines(capsys, argv + ["1"])
        assert run_lines(capsys, argv + ["2"]) == (code, lines)
        flagged = []
        if claim == "conjecture2":
            flagged = sorted(canonical_graph6(parse_graph6(g6)) for g6 in ORDER8_CONJECTURE2_FLAGS)
        assert lines == [f"{claim} {path} 9 {len(flagged)}"] + flagged
        assert code == (1 if flagged else 0)

    def test_exit_code_on_counterexample(self, capsys, monkeypatch, tmp_path):
        from forestcut import verify as verify_module

        def fake_run_check(claim, corpus, description="corpus", workers=1):
            return verify_module.CheckReport(claim, "fake", 1, ("C~",))

        monkeypatch.setattr(cli.verify, "run_check", fake_run_check)
        path = tmp_path / "corpus.g6"
        path.write_text("C~\n")
        code, lines = run_lines(capsys, ["verify", "--claim", "chenyu", "--input", str(path)])
        assert code == 1
        assert lines == ["chenyu fake 1 1", "C~"]


class TestGenCommand:
    def test_gk_family_graph6(self, capsys):
        code, lines = run_lines(capsys, ["gen", "--family", "gk", "--k", "1"])
        assert code == 0
        assert len(lines) == 1
        g = parse_graph6(lines[0])
        assert g.order == 7 and g.size == 14
        assert lines[0] == write_graph6(conjecture2_family(1))

    def test_fixture_edges_format(self, capsys):
        code, lines = run_lines(
            capsys, ["gen", "--family", "fixture", "--name", "prism", "--format", "edges"]
        )
        assert code == 0
        assert lines[0] == "6 9"
        assert len(lines) == 10

    def test_band(self, capsys):
        code, lines = run_lines(capsys, ["gen", "--family", "band", "--n", "8", "--c", "4"])
        assert code == 0
        assert parse_graph6(lines[0]).size == 19

    def test_glue(self, capsys):
        code, lines = run_lines(
            capsys,
            ["gen", "--family", "glue", "--a", "octahedron", "--b", "octahedron",
             "--clique-a", "0,1,2", "--clique-b", "0,1,2"],
        )
        assert code == 0
        g = parse_graph6(lines[0])
        assert g.order == 9 and g.size == 21

    def test_stacked_rotation_output_feeds_planar_cut(self, capsys, tmp_path):
        code = cli.run(["gen", "--family", "stacked", "--n", "8", "--seed", "5",
                        "--format", "rot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "8"
        path = tmp_path / "stacked.rot"
        path.write_text(out)
        code, lines = run_lines(capsys, ["planar-cut", "--input", str(path), "--edge", "0,1"])
        assert code == 0
        assert lines[0].startswith("cut ")

    def test_stacked_deterministic_per_seed(self, capsys):
        cli.run(["gen", "--family", "stacked", "--n", "9", "--seed", "2"])
        first = capsys.readouterr().out
        cli.run(["gen", "--family", "stacked", "--n", "9", "--seed", "2"])
        assert capsys.readouterr().out == first

    def test_rot_format_needs_stacked(self, capsys):
        assert cli.run(["gen", "--family", "gk", "--k", "1", "--format", "rot"]) == 2

    def test_bad_parameters_exit_2(self, capsys):
        code = cli.run(["gen", "--family", "band", "--n", "7", "--c", "4"])
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        assert cli.run(["gen", "--family", "nosuch"]) == 2


class TestPlanarCutCommand:
    def test_octahedron_rotation_file(self, capsys, tmp_path):
        tri = octahedron_triangulation()
        path = tmp_path / "octa.rot"
        path.write_text(write_rotation_system(tri.embedding))
        code, lines = run_lines(
            capsys, ["planar-cut", "--input", str(path), "--edge", "0,1"]
        )
        assert code == 0
        assert lines[0].startswith("cut ")
        cut = [int(tok) for tok in lines[0].split()[1:]]
        from forestcut.graph import delete_edge, induced_is_forest, is_vertex_cut, vertex_set

        gm = delete_edge(tri.graph, 0, 1)
        assert is_vertex_cut(gm, vertex_set(cut))
        assert induced_is_forest(gm, vertex_set(cut))


class TestLpCommand:
    def test_certificate_report_n20(self, capsys):
        code, lines = run_lines(capsys, ["lp", "--n", "20"])
        assert code == 0
        assert lines[-1] == "objective-bound 44"
        row_ids = [ln.split()[0] for ln in lines[:-1]]
        assert "n_4" in row_ids and "n_19" in row_ids and "n_4^6''" in row_ids
        n4_line = next(ln for ln in lines if ln.startswith("n_4 "))
        assert n4_line == "n_4 <= 2 2 0"

    def test_solve_flag(self, capsys):
        code, lines = run_lines(capsys, ["lp", "--n", "8", "--solve"])
        assert code == 0
        assert lines[-1] == "primal-optimum 88/5"
        assert lines[-2] == "objective-bound 88/5"


class TestAuditCommand:
    def test_octahedron(self, capsys, tmp_path):
        from forestcut.constructions import fixture

        path = tmp_path / "octa.g6"
        path.write_text(write_graph6(fixture("octahedron")) + "\n")
        code, lines = run_lines(capsys, ["audit", "--input", str(path)])
        assert code == 0
        table = dict(ln.split() for ln in lines)
        assert table["neighborhood_degree_sums"] == "FAILS"
        assert table["partition_row_top6"] == "holds"


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = cli.run(["enumerate", "--n", "5", "--min-connectivity", "2"])
        out1 = capsys.readouterr().out
        second = cli.run(["enumerate", "--n", "5", "--min-connectivity", "2"])
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2


class TestWorkersEnvironment:
    def test_env_variable_sets_default(self, capsys, monkeypatch):
        argv = ["verify", "--claim", "chenyu", "--builtin-n", "4"]
        monkeypatch.setenv("FORESTCUT_WORKERS", "6")
        assert cli._build_parser().parse_args(argv).workers == 6
        monkeypatch.setenv("FORESTCUT_WORKERS", "junk")
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'junk'" in captured.err
        assert cli.run(argv + ["--workers", "1"]) == 0
        monkeypatch.delenv("FORESTCUT_WORKERS")
        assert cli._build_parser().parse_args(argv).workers == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, capsys, monkeypatch, workers):
        argv = ["verify", "--claim", "chenyu", "--builtin-n", "5", "--workers", workers]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: workers must be at least 1, got {workers}\n"
        monkeypatch.setenv("FORESTCUT_WORKERS", workers)
        assert cli.run(argv[:-2]) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
