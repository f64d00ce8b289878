import hashlib
import io
from fractions import Fraction

import pytest

from conftest import ORDER8_CONJECTURE2_FLAGS
from test_planar import TRIANGLE_AND_ISOLATED_VERTEX, toroidal_k7_beside_k4
from forestcut import cli
from forestcut.constructions import (
    FIXTURE_NAMES,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
)
from forestcut.graph import parse_graph6, write_graph6
from forestcut.planar import (
    octahedron_triangulation,
    random_stacked_triangulation,
    write_rotation_system,
)
from forestcut.verify import CLAIM_NAMES, Density, Graph6Corpus, canonical_graph6


# `gen --family stacked --n 9 --seed 7 --format rot`, byte for byte
STACKED_9_7_ROT = """9
0: 1 7 8 3 5 4 6 2
1: 2 3 7 0
2: 0 6 4 3 1
3: 2 4 5 0 8 7 1
4: 3 2 6 0 5
5: 3 4 0
6: 4 2 0
7: 1 3 8 0
8: 7 3 0
"""


# sha256 over `gen --family stacked --n N --seed S --format rot` stdout for
# N = 4..128 and S = 0..5, each followed by "outer A B C\n", the generator's
# outer face.  Computed with the per-vertex `stack_vertex` generator.
STACKED_ROT_SHA256 = "652b4ccf9b4ec5ba2a5f45d16ff08d3f83c36dda28c6fda536d56e8a6b343816"


# `forestcut audit` stdout, byte for byte.  The order-10 graph has degree-4
# vertices under a degree-5 top neighbour and under one or two degree-6 ones.
AUDIT_ORDER10_GRAPH6 = "I|ceO}E@w"
AUDIT_ICOSAHEDRON = """four_connected holds
partition_row_deg4 holds
partition_row_top6 holds
weighted_degree_row holds
deg5_capacity_row holds
deg6_capacity_row holds
high_degree_rows holds
neighborhood_degree_sums holds
max_two_degree4_neighbors holds
degree5_not_all_degree4 holds
"""
AUDIT_GK3 = """four_connected FAILS
partition_row_deg4 holds
partition_row_top6 holds
weighted_degree_row FAILS
deg5_capacity_row holds
deg6_capacity_row holds
high_degree_rows holds
neighborhood_degree_sums holds
max_two_degree4_neighbors holds
degree5_not_all_degree4 holds
"""
AUDIT_CDU4 = """four_connected holds
partition_row_deg4 holds
partition_row_top6 holds
weighted_degree_row FAILS
deg5_capacity_row holds
deg6_capacity_row holds
high_degree_rows holds
neighborhood_degree_sums holds
max_two_degree4_neighbors FAILS
degree5_not_all_degree4 holds
"""
AUDIT_ORDER10 = """four_connected FAILS
partition_row_deg4 holds
partition_row_top6 holds
weighted_degree_row holds
deg5_capacity_row FAILS
deg6_capacity_row holds
high_degree_rows holds
neighborhood_degree_sums FAILS
max_two_degree4_neighbors FAILS
degree5_not_all_degree4 holds
"""


# `gen --family fixture --name NAME` stdout: the labelled graph6, not its canonical form
FIXTURE_GRAPH6 = {
    "fig1_a": "ElUg",
    "fig1_b": "Eldg",
    "fig1_c": "Fl_zO",
    "fig1_d": "Fhdcw",
    "icosahedron": "KQouPikgqxIY",
    "k33": "EFz_",
    "k4": "C~",
    "octahedron": "EznW",
    "prism": "E{Sw",
    "wheel5": "Dl{",
}


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
        # the grammar is ASCII: int() would read Arabic-Indic digits
        for text in ("\u0661\u0661/5n-18/5", "3n\u2003-6"):
            with pytest.raises(ValueError, match="^bad threshold expression"):
                Density.parse(text)

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

    @pytest.mark.parametrize("fmt, text, message", [
        ("graph6", "?\n", "graph6 order 0 not representable here"),
        ("edges", "0 0\n", "order 0 must be positive"),
        ("edges", "11 1\n0 1_0\n", "bad edge line '0 1_0'"),
        ("edges", "3 1\n0\x1c1\n", "bad edge line '0\\x1c1'"),
        ("edges", "3 2\n0 1\n1 0\n", "edge (1, 0) repeats edge (0, 1)"),
    ])
    def test_input_error_exit_2(self, capsys, monkeypatch, fmt, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = cli.run(["check", "--input", "-", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_avoid_with_forest_kind_exit_2(self, capsys, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text("Cr\n")
        code = cli.run(["check", "--input", str(path), "--kind", "forest", "--avoid", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --avoid applies only to --kind independent\n"

    def test_exhaustive_with_independent_kind_exit_2(self, capsys, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text("Cr\n")
        code = cli.run(["check", "--input", str(path), "--kind", "independent", "--exhaustive"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --exhaustive applies only to --kind forest\n"


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


class TestUndecodableInput:
    """Inputs are read as latin-1, so the parser names a stray byte itself,
    and a non-ASCII space or line break fails its line."""

    @pytest.mark.parametrize("command, data, want", [
        (["check"], b"\xffw\n", "bad order byte 255"),
        (["audit", "--format", "edges"], b"\xff3 2\n0 1\n1 2\n", "bad edge-list header '\xff3 2'"),
        (["planar-cut", "--edge", "0,1"], b"3\n0: 1 2\xff\n1: 2 0\n2: 0 1\n",
         "bad rotation line '0: 1 2\xff'"),
        (["check", "--format", "edges"], b"3 2\n0 1\n1\xa02\n", "bad edge line '1\\xa02'"),
        (["check", "--format", "edges"], b"3 2\n0 1\x851 2\n", "header promises 2 edges, found 1"),
        (["planar-cut", "--edge", "0,1"], b"3\n0: 1\xa02\n1: 2 0\n2: 0 1\n",
         "bad rotation line '0: 1\\xa02'"),
    ], ids=["graph6", "edges", "rotation", "edges-nbsp", "edges-nel", "rotation-nbsp"])
    def test_parser_names_the_bad_byte(self, capsys, tmp_path, command, data, want):
        path = tmp_path / "bad"
        path.write_bytes(data)
        code = cli.run([command[0], "--input", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {want}\n"

    def test_stdin_bytes_read_as_latin1(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xffw\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert cli.run(["check", "--input", "-"]) == 2
        assert capsys.readouterr().err == "error: bad order byte 255\n"

    @pytest.mark.parametrize("data, code", [
        (b"Bw\xa0\n", 2), (b"Bw\x85\n", 2), (b"Bw\r\n", 0), (b" Bw \n", 0),
    ])
    def test_graph6_whitespace_is_ascii(self, capsys, tmp_path, data, code):
        path = tmp_path / "one.g6"
        path.write_bytes(data)
        assert cli.run(["check", "--input", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: expected 1 data bytes, got 2\n"
        else:
            assert captured.out == "NONE\n"


# \r\n endings, a lone \r, blank lines and one malformed line, the seventh
MIXED_ENDINGS = b"C~\r\nBw\r\n\r\nC~\rBw\n\n!!\r\nD??\n"


def streams(tmp_path, monkeypatch, data):
    """The same bytes as a file, a byte stdin and a decoded stdin: yields the
    ``--input`` value for each, with stdin put in place."""
    path = tmp_path / "input"
    path.write_bytes(data)
    yield str(path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    yield "-"
    monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("latin-1")))
    yield "-"


class TestOneReader:
    """Every ``--input`` splits lines at \\n, \\r and \\r\\n, however it arrives."""

    def test_verify_reports_alike(self, capsys, monkeypatch, tmp_path):
        for arg in streams(tmp_path, monkeypatch, MIXED_ENDINGS):
            assert cli.run(["verify", "--claim", "theorem2", "--input", arg]) == 0
            assert capsys.readouterr().out == f"theorem2 {arg}[malformed-lines=1] 5 0\n"

    def test_corpus_numbers_lines_alike(self, monkeypatch, tmp_path):
        for arg in streams(tmp_path, monkeypatch, MIXED_ENDINGS):
            corpus = Graph6Corpus(arg)
            assert [g.order for g in corpus] == [4, 3, 4, 3, 5]
            assert corpus.malformed == [(7, "bad order byte 33")]

    @pytest.mark.parametrize("command", ["check", "audit", "verify", "planar-cut"])
    def test_closed_stdin_is_an_input_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", None)
        extra = {"verify": ["--claim", "theorem2"], "planar-cut": ["--edge", "0,1"]}
        assert cli.run([command, "--input", "-", *extra.get(command, [])]) == 2
        assert capsys.readouterr() == ("", "error: stdin is closed\n")

    @pytest.mark.parametrize("argv, text, code", [
        (["check"], "\nDQc\n\n", 0),
        (["check"], "C~\nC~\n", 2),
        (["audit"], "\nDQc\n", 0),
        (["planar-cut", "--edge", "0,1"], STACKED_9_7_ROT, 0),
    ], ids=["check", "check-two-lines", "audit", "planar-cut"])
    def test_single_graph_commands_read_alike(self, capsys, monkeypatch, tmp_path,
                                              argv, text, code):
        plain = tmp_path / "plain"
        plain.write_text(text)
        want = (cli.run([argv[0], "--input", str(plain), *argv[1:]]), capsys.readouterr())
        assert want[0] == code
        data = text.replace("\n", "\r\n").replace("\r\n", "\r", 1).encode()
        for arg in streams(tmp_path, monkeypatch, data):
            assert (cli.run([argv[0], "--input", arg, *argv[1:]]), capsys.readouterr()) == want


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

    def test_undecodable_byte_is_a_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "c.g6"
        path.write_bytes(b"Bw\n\xffw\nBw\n")
        code, lines = run_lines(capsys, ["verify", "--claim", "theorem2", "--input", str(path)])
        assert code == 0
        assert lines == [f"theorem2 {path}[malformed-lines=1] 2 0"]

    def test_non_ascii_whitespace_is_a_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "ws.g6"
        path.write_bytes(b"Bw\xa0\nBw\x85\n")
        code, lines = run_lines(capsys, ["verify", "--claim", "theorem2", "--input", str(path)])
        assert code == 0
        assert lines == [f"theorem2 {path}[malformed-lines=2] 0 0"]

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

    @pytest.mark.parametrize("name", sorted(FIXTURE_GRAPH6))
    def test_fixture_graph6_is_pinned(self, capsys, name):
        code, lines = run_lines(capsys, ["gen", "--family", "fixture", "--name", name])
        assert code == 0
        assert lines == [FIXTURE_GRAPH6[name]]

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

    def test_stacked_output_pinned(self, capsys, tmp_path):
        code = cli.run(["gen", "--family", "stacked", "--n", "9", "--seed", "7",
                        "--format", "rot"])
        assert (code, capsys.readouterr().out) == (0, STACKED_9_7_ROT)
        path = tmp_path / "stacked.rot"
        path.write_text(STACKED_9_7_ROT)
        # one cut is V(Q), the other {z, u}
        for edge, want in (("0,1", ["cut 0 1 3"]), ("0,5", ["cut 3 4"])):
            assert run_lines(capsys, ["planar-cut", "--input", str(path), "--edge", edge]) == (0, want)

    def test_stacked_rot_output_pinned_over_orders(self, capsys, monkeypatch):
        built = []

        def recording(n, seed):
            built.append(random_stacked_triangulation(n, seed))
            return built[-1]

        monkeypatch.setitem(cli._GEN_FAMILIES, "stacked", (recording, ("n", "seed")))
        digest = hashlib.sha256()
        for n in range(4, 129):
            for seed in range(6):
                argv = ["gen", "--family", "stacked", "--n", str(n), "--seed", str(seed),
                        "--format", "rot"]
                assert cli.run(argv) == 0
                digest.update(capsys.readouterr().out.encode())
                digest.update(("outer %d %d %d\n" % built[-1].outer_face).encode())
        assert digest.hexdigest() == STACKED_ROT_SHA256

    def test_stacked_above_order_62_in_long_form_graph6(self, capsys, tmp_path):
        code, lines = run_lines(capsys, ["gen", "--family", "stacked", "--n", "100", "--seed", "7"])
        assert code == 0 and lines[0].startswith("~?@c")  # 100 = 1 * 64 + 36
        assert parse_graph6(lines[0]) == random_stacked_triangulation(100, 7).graph
        path = tmp_path / "stacked100.g6"
        path.write_text(lines[0] + "\n")
        code, lines = run_lines(capsys, ["verify", "--claim", "conjecture1", "--input", str(path)])
        assert (code, lines) == (0, [f"conjecture1 {path} 1 0"])  # one graph scanned, none flagged

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

    @pytest.mark.parametrize(
        "family, given, missing",
        [
            ("band", [], "--n"),
            ("band", ["--n", "8"], "--c"),
            ("band", ["--c", "4"], "--n"),
            ("gk", [], "--k"),
            ("cdu", [], "--k"),
            ("stacked", [], "--n"),
            ("fixture", [], "--name"),
            ("glue", [], "--a"),
            ("glue", ["--a", "octahedron"], "--b"),
            ("glue", ["--a", "octahedron", "--b", "octahedron"], "--clique-a"),
            ("glue", ["--a", "octahedron", "--b", "octahedron", "--clique-a", "0,1,2"],
             "--clique-b"),
        ],
    )
    def test_missing_family_option_exit_2(self, capsys, family, given, missing):
        code = cli.run(["gen", "--family", family, *given])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --family {family} needs {missing}\n"

    @pytest.mark.parametrize(
        "family, given, stray",
        [
            ("fixture", ["--name", "k4", "--k", "5", "--seed", "3"], "--k"),
            ("gk", ["--k", "1", "--n", "8"], "--n"),
            ("band", ["--n", "8", "--c", "4", "--name", "k4"], "--name"),
            ("cdu", ["--k", "3", "--seed", "0"], "--seed"),
            ("glue", ["--a", "k4", "--b", "k4", "--clique-a", "0,1", "--clique-b", "0,1",
                      "--c", "3"], "--c"),
            ("stacked", ["--n", "8", "--clique-b", "0,1"], "--clique-b"),
        ],
    )
    def test_stray_family_option_exit_2(self, capsys, family, given, stray):
        code = cli.run(["gen", "--family", family, *given])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --family {family} does not take {stray}\n"

    def test_stacked_seed_defaults_to_0(self, capsys):
        argv = ["gen", "--family", "stacked", "--n", "9"]
        assert run_lines(capsys, argv) == run_lines(capsys, argv + ["--seed", "0"])

    @pytest.mark.parametrize(
        "option, value, want",
        [
            ("--clique-a", "0,x", "comma-separated integers"),
            ("--clique-a", "", "comma-separated integers"),
            ("--clique-b", "0,,2", "comma-separated integers"),
            ("--clique-a", "0,1,\u0662", "comma-separated integers"),
            ("--clique-b", "0,+1,2", "comma-separated integers"),
            ("--clique-b", "0,1_0,2", "comma-separated integers"),
        ],
    )
    def test_bad_clique_names_the_option(self, capsys, option, value, want):
        argv = ["gen", "--family", "glue", "--a", "octahedron", "--b", "octahedron",
                "--clique-a", "0,1,2", "--clique-b", "0,1,2"]
        argv[argv.index(option) + 1] = value
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {option} expects {want}, got {value!r}\n"

    @pytest.mark.parametrize("clique, vertex", [("0,1,-1", -1), ("0,1,9", 9)])
    def test_clique_vertex_outside_graph_exit_2(self, capsys, clique, vertex):
        code = cli.run(["gen", "--family", "glue", "--a", "octahedron", "--b", "octahedron",
                        "--clique-a", clique, "--clique-b", "0,1,2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: clique_a: vertex {vertex} outside graph\n"

    def test_glue_operands_read_before_clique_shapes(self, capsys):
        # both fixtures are looked up before clique_glue checks the clique tuples
        argv = ["gen", "--family", "glue", "--a", "nope", "--b", "k4",
                "--clique-a", "0,1", "--clique-b", "0,1,2"]
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: unknown fixture 'nope'; choose from {FIXTURE_NAMES}\n"
        argv[argv.index("nope")] = "k4"
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: clique tuples must have equal length\n"

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

    # int() reads '1_0' as 10, '+0' as 0 and U+0661 as 1; vertex ids are ASCII digits
    @pytest.mark.parametrize("edge", ["x", "0", "0,1,2", "0,y", "", "0,1_0", "+0,1", "0,\u0661"])
    def test_bad_edge_names_the_option(self, capsys, tmp_path, edge):
        path = tmp_path / "octa.rot"
        path.write_text(write_rotation_system(octahedron_triangulation().embedding))
        code = cli.run(["planar-cut", "--input", str(path), "--edge", edge])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: --edge expects 2 comma-separated integers, got {edge!r}\n"
        )

    def test_vertex_listed_twice_exit_2(self, capsys, tmp_path):
        path = tmp_path / "twice.rot"
        path.write_text("4\n0: 1 2\n1: 2 0\n2: 0 1\n2: 1 0\n")
        assert cli.run(["planar-cut", "--input", str(path), "--edge", "0,1"]) == 2
        assert capsys.readouterr().err == "error: vertex 2 listed twice\n"

    def test_row_vertex_out_of_range_exit_2(self, capsys, tmp_path):
        path = tmp_path / "row.rot"
        path.write_text("2\n0: 1 -1\n1: 0\n")
        assert cli.run(["planar-cut", "--input", str(path), "--edge", "0,1"]) == 2
        assert capsys.readouterr().err == "error: rotation at 0 names vertex -1 outside 0..1\n"

    @pytest.mark.parametrize("text, message", [
        # K4 minus the edge 1-3: the face 0 1 2 3 is a quadrilateral
        ("4\n0: 1 2 3\n1: 2 0\n2: 3 0 1\n3: 0 2\n", "embedding has a non-triangular face"),
        ("", "empty rotation input"),
        ("3\n0: 1 2\n1: 2 0\n2: 0 0_1\n", "bad rotation line '2: 0 0_1'"),
        ("3\n0: 1\x1f2\n1: 2 0\n2: 0 1\n", "bad rotation line '0: 1\\x1f2'"),
    ])
    def test_rotation_input_error_exit_2(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = cli.run(["planar-cut", "--input", "-", "--edge", "0,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("rot", [toroidal_k7_beside_k4(), TRIANGLE_AND_ISOLATED_VERTEX],
                             ids=["toroidal-k7-beside-k4", "triangle-and-isolated-vertex"])
    def test_disconnected_rotation_exit_2(self, capsys, monkeypatch, rot):
        # every face of the toroidal K7 beside K4 is a triangle and m = 3n - 6
        lines = [str(len(rot))] + [f"{v}: " + " ".join(map(str, row)) for v, row in enumerate(rot)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = cli.run(["planar-cut", "--input", "-", "--edge", "7,8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: rotation system of a disconnected graph\n"

    def test_bad_header_exit_2(self, capsys, tmp_path):
        path = tmp_path / "header.rot"
        path.write_text("2.5\n0: 1\n1: 0\n")
        assert cli.run(["planar-cut", "--input", str(path), "--edge", "0,1"]) == 2
        assert capsys.readouterr().err == "error: bad rotation header '2.5'\n"


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

    def test_certificate_checked_once(self, capsys, monkeypatch):
        from forestcut import lp

        calls = []
        check = lp.check_feasible
        monkeypatch.setattr(lp, "check_feasible", lambda *a: calls.append(a) or check(*a))
        code, lines = run_lines(capsys, ["lp", "--n", "10"])
        assert code == 0
        assert lines[-1] == "objective-bound 22"
        assert len(calls) == 1

    def test_order_above_the_bound_exit_2(self, capsys):
        # refused before any row is built, so no memory error can exit 1
        assert cli.run(["lp", "--n", "100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the certificate is defined for n <= 10000, got 100000000\n"

    def test_infeasible_certificate_exits_1(self, capsys, monkeypatch):
        from forestcut import lp

        certificate = lp.certificate_dual_point

        def negative_x4(n):
            point = certificate(n)
            return lp.DualPoint(point.x1, point.x2, point.x3, Fraction(-1, 70), point.y)

        monkeypatch.setattr(lp, "certificate_dual_point", negative_x4)
        code, lines = run_lines(capsys, ["lp", "--n", "10"])
        assert code == 1
        assert lines[-1] == "INFEASIBLE"
        assert not any(ln.startswith("objective-bound") for ln in lines)


class TestAuditCommand:
    def test_octahedron(self, capsys, tmp_path):
        path = tmp_path / "octa.g6"
        path.write_text(write_graph6(fixture("octahedron")) + "\n")
        code, lines = run_lines(capsys, ["audit", "--input", str(path)])
        assert code == 0
        table = dict(ln.split() for ln in lines)
        assert table["neighborhood_degree_sums"] == "FAILS"
        assert table["partition_row_top6"] == "holds"

    @pytest.mark.parametrize(
        "graph, want",
        [
            (lambda: fixture("icosahedron"), AUDIT_ICOSAHEDRON),
            (lambda: conjecture2_family(3), AUDIT_GK3),
            (lambda: cycle_diagonals_universal(4), AUDIT_CDU4),
            (lambda: parse_graph6(AUDIT_ORDER10_GRAPH6), AUDIT_ORDER10),
        ],
        ids=["icosahedron", "gk3", "cdu4", "order10"],
    )
    def test_output_pinned(self, capsys, tmp_path, graph, want):
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(graph()) + "\n")
        code = cli.run(["audit", "--input", str(path)])
        assert (code, capsys.readouterr().out) == (0, want)


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = cli.run(["enumerate", "--n", "5", "--min-connectivity", "2"])
        out1 = capsys.readouterr().out
        second = cli.run(["enumerate", "--n", "5", "--min-connectivity", "2"])
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2


class TestWorkersEnvironment:
    """``--workers`` alone sets the worker count; the environment does not."""

    def test_default_is_one(self, capsys, monkeypatch):
        argv = ["verify", "--claim", "chenyu", "--builtin-n", "4"]
        monkeypatch.setenv("FORESTCUT_WORKERS", "junk")
        assert cli._build_parser().parse_args(argv).workers == 1
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, capsys, workers):
        argv = ["verify", "--claim", "chenyu", "--builtin-n", "5", "--workers", workers]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: workers must be at least 1, got {workers}\n"
