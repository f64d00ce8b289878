"""The command line, byte for byte: one sha256 per subcommand.

Each invocation runs in process through ``cli.run``.  The digest of a
subcommand covers, for each of its invocations in order, the argv, the stdin
given, the exit code, stdout and stderr, with the test's temporary directory
written as ``{tmp}``.  A change to any byte any invocation prints, or to any
exit code, fails the test of the subcommand it touched.  argparse's usage
messages wrap at the terminal width, so COLUMNS is pinned; their wording
can change with the Python minor version, which moves the pins of the
subcommands whose error paths reach argparse.
"""

import hashlib
import io
import random

import pytest

from conftest import ORDER8_CONJECTURE2_FLAGS
from forestcut import cli
from forestcut.constructions import (
    FIXTURE_NAMES,
    GlueSpec,
    clique_glue,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from forestcut.graph import build_graph, write_edge_list, write_graph6
from forestcut.planar import (
    octahedron_triangulation,
    random_stacked_triangulation,
    write_rotation_system,
)
from forestcut.verify import CLAIM_NAMES

# keyed by subcommand, "" for the calls that name none.  Recompute a pin
# only for an output that is meant to change, and record why.
TRANSCRIPT_SHA256 = {
    "": "9b3cd3f91817d13bddbf36083500c3d9b720aa74d292dd57455d92e673f0fb54",
    "audit": "afae22280cd7654e278fe12a2a3b3c1be63144457c09a6312472fa6caa111b7d",
    "check": "f7d8bb6b4f8548aa8306db9273dae2d070486b260e952bfa9a2a521f8d3aae38",
    "enumerate": "15a5346eae2f98f0943610cec04033ce007d0a29361d922f2151a07f89b48bfd",
    "gen": "4732a4e51c0b8d03628bcd98a82d68c7f8d39afe60bdbb58b41fceb509cfa5fb",
    "lp": "c6a00f629eb9862a4046e324ea451d53fc28b6d3400bc475ae5bf6566c42bbfe",
    "planar-cut": "aefaa21c83487d0109e8042999f55b9a952e3aefa456372f70e5abff07a967e1",
    "verify": "29db39f62b196b2ddb0ca1ba85f5159d58eebacfbfcc081add581a324e261417",
}


def corpus_lines(seed: int = 7, count: int = 120) -> list[str]:
    """Random connected graphs of order 8..14 around the theorem-2 density
    5m < 11n - 18, the four order-8 graphs conjecture2 flags, a blank line,
    a malformed line and a disconnected graph."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        n = rng.randint(8, 14)
        limit = 11 * n - 18
        m = (limit - 1) // 5 if rng.random() < 0.75 else -(-limit // 5)
        order = list(range(n))
        rng.shuffle(order)
        edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        lines.append(write_graph6(build_graph(n, sorted(edges))))
    lines[10:10] = ORDER8_CONJECTURE2_FLAGS
    lines[40:40] = ["", "G?bF@{x", "EwCW"]
    return lines


def named_graphs() -> dict:
    graphs = {name: fixture(name) for name in FIXTURE_NAMES}
    graphs.update({f"gk{k}": conjecture2_family(k) for k in (1, 2)})
    graphs.update({f"cdu{k}": cycle_diagonals_universal(k) for k in (3, 4)})
    graphs.update({"band8_4": k3_band_cycle(8, 4), "band9_3": k3_band_cycle(9, 3)})
    octahedron = fixture("octahedron")
    graphs["glued"] = clique_glue(octahedron, octahedron, GlueSpec((0, 1, 2), (0, 1, 2)))
    graphs["c7"] = build_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    return graphs


def invocations(command: str, write) -> list:
    """``(argv, stdin)`` pairs for one subcommand; ``write(name, text)`` puts
    an input file in the temporary directory and returns its argv path."""
    graphs = named_graphs()
    g6 = {name: write(f"{name}.g6", write_graph6(g) + "\n") for name, g in graphs.items()}
    edges = write("prism.edges", write_edge_list(fixture("prism")))
    two_lines = write("two.g6", "C~\nC~\n")
    bad_byte = write("bad.g6", "D\xffw\n")
    missing = "{tmp}/missing.g6"
    calls = []
    if command == "":
        calls = [([], None), (["frobnicate"], None), (["--workers", "2"], None)]
    elif command == "check":
        for name, path in g6.items():
            calls.append((["check", "--input", path], None))
            calls.append((["check", "--input", path, "--kind", "independent"], None))
            calls.append(
                (["check", "--input", path, "--kind", "independent", "--avoid", "0"], None)
            )
            if graphs[name].order <= 12:
                calls.append((["check", "--input", path, "--exhaustive"], None))
        calls += [
            (["check", "--input", edges, "--format", "edges"], None),
            (["check"], write_graph6(fixture("fig1_c")) + "\n"),
            (["check", "--input", "-", "--kind", "independent"], "Dl{\n"),
            (["check", "--format", "edges"], write_edge_list(fixture("k33"))),
            (["check"], "EwCW\n"),
            (["check"], "A_\n"),
            (["check", "--input", g6["prism"], "--avoid", "1"], None),
            (["check", "--input", g6["prism"], "--kind", "independent", "--exhaustive"], None),
            (["check", "--input", g6["prism"], "--kind", "independent", "--avoid", "9"], None),
            (["check", "--input", two_lines], None),
            (["check", "--input", bad_byte], None),
            (["check", "--input", missing], None),
            (["check", "--kind", "acyclic"], None),
        ]
    elif command == "enumerate":
        calls = [(["enumerate", "--n", str(n)], None) for n in range(1, 7)]
        calls += [
            (["enumerate", "--n", "7", "--min-connectivity", "3"], None),
            (["enumerate", "--n", "7", "--max-edges-lt", "11/5n-18/5", "--format", "edges"], None),
            (["enumerate", "--n", "6", "--min-connectivity", "2", "--max-edges-lt", "3n-6"], None),
            (["enumerate", "--n", "9"], None),
            (["enumerate", "--n", "0"], None),
            (["enumerate", "--n", "5", "--min-connectivity", "-1"], None),
            (["enumerate", "--n", "5", "--max-edges-lt", "n^2"], None),
            (["enumerate", "--n", "5", "--max-edges-lt", "1/0n"], None),
            (["enumerate", "--n", "x"], None),
            (["enumerate"], None),
        ]
    elif command == "verify":
        corpus = write("corpus.g6", "\n".join(corpus_lines()) + "\n")
        for n in range(3, 8):
            calls += [(["verify", "--claim", c, "--builtin-n", str(n)], None) for c in CLAIM_NAMES]
        for workers in ("1", "2"):
            calls += [(["verify", "--claim", c, "--input", corpus, "--workers", workers], None)
                      for c in CLAIM_NAMES]
        calls += [
            (["verify", "--claim", "chenyu", "--builtin-n", "4", "--workers", "0"], None),
            (["verify", "--claim", "chenyu", "--builtin-n", "9"], None),
            (["verify", "--claim", "chenyu", "--builtin-n", "3", "--input", corpus], None),
            (["verify", "--claim", "lemma", "--builtin-n", "3"], None),
            (["verify", "--builtin-n", "3"], None),
            (["verify", "--claim", "theorem2"], None),
            (["verify", "--claim", "theorem2", "--input", missing], None),
            (["verify", "--claim", "theorem2", "--input", bad_byte], None),
            (["verify", "--claim", "theorem2", "--input", "-"], "C~\n"),
        ]
    elif command == "gen":
        for name in FIXTURE_NAMES:
            for fmt in ("graph6", "edges"):
                argv = ["gen", "--family", "fixture", "--name", name, "--format", fmt]
                calls.append((argv, None))
        for k in range(1, 5):
            calls.append((["gen", "--family", "gk", "--k", str(k)], None))
            calls.append((["gen", "--family", "gk", "--k", str(k), "--format", "edges"], None))
        for n, c in ((8, 4), (9, 3), (12, 5), (30, 5)):
            calls.append((["gen", "--family", "band", "--n", str(n), "--c", str(c)], None))
        for k in range(2, 7):
            calls.append((["gen", "--family", "cdu", "--k", str(k)], None))
        calls += [
            (["gen", "--family", "glue", "--a", "octahedron", "--b", "octahedron",
              "--clique-a", "0,1,2", "--clique-b", "0,1,2"], None),
            (["gen", "--family", "glue", "--a", "prism", "--b", "k4",
              "--clique-a", "0,1", "--clique-b", "2,3", "--format", "edges"], None),
        ]
        for n in range(4, 13):
            for seed in range(3):
                for fmt in ("graph6", "edges", "rot"):
                    argv = ["gen", "--family", "stacked", "--n", str(n), "--seed", str(seed)]
                    calls.append((argv + ["--format", fmt], None))
        calls += [
            (["gen", "--family", "stacked", "--n", "100", "--seed", "7"], None),
            (["gen", "--family", "stacked", "--n", "3"], None),
            (["gen", "--family", "band"], None),
            (["gen", "--family", "band", "--n", "7", "--c", "4"], None),
            (["gen", "--family", "gk", "--k", "0"], None),
            (["gen", "--family", "cdu", "--k", "1"], None),
            (["gen", "--family", "fixture", "--name", "nosuch"], None),
            (["gen", "--family", "gk", "--k", "1", "--format", "rot"], None),
            (["gen", "--family", "glue", "--a", "octahedron", "--b", "octahedron",
              "--clique-a", "0,x", "--clique-b", "0,1,2"], None),
            (["gen", "--family", "glue", "--a", "octahedron"], None),
            (["gen", "--family", "nosuch"], None),
            (["gen"], None),
        ]
    elif command == "planar-cut":
        octa = write("octa.rot", write_rotation_system(octahedron_triangulation().embedding))
        calls = [(["planar-cut", "--input", octa, "--edge", edge], None)
                 for edge in ("0,1", "1,0", "0,2")]
        for n in range(5, 12):
            for seed in range(3):
                tri = random_stacked_triangulation(n, seed)
                path = write(f"stacked{n}_{seed}.rot", write_rotation_system(tri.embedding))
                a, b, c = tri.outer_face
                for u, v in ((0, 1), (a, b), (c, a)):
                    calls.append((["planar-cut", "--input", path, "--edge", f"{u},{v}"], None))
        calls += [
            (["planar-cut", "--input", "-", "--edge", "0,1"],
             write_rotation_system(random_stacked_triangulation(9, 7).embedding)),
            (["planar-cut", "--input", octa, "--edge", "0,5"], None),
            (["planar-cut", "--input", octa, "--edge", "0,9"], None),
            (["planar-cut", "--input", octa, "--edge", "0,y"], None),
            (["planar-cut", "--input", octa], None),
            (["planar-cut", "--input", write("twice.rot", "4\n0: 1 2\n1: 2 0\n2: 0 1\n2: 1 0\n"),
              "--edge", "0,1"], None),
            (["planar-cut", "--input", write("header.rot", "2.5\n0: 1\n1: 0\n"), "--edge", "0,1"],
             None),
            (["planar-cut", "--input", missing, "--edge", "0,1"], None),
        ]
    elif command == "lp":
        calls = [(["lp", "--n", str(n)], None) for n in (8, 9, 10, 20, 64, 1000)]
        calls += [(["lp", "--n", str(n), "--solve"], None) for n in (8, 13, 24, 64)]
        calls += [(["lp", "--n", "7"], None), (["lp", "--n", "x"], None), (["lp"], None)]
    elif command == "audit":
        calls = [(["audit", "--input", path], None) for path in g6.values()]
        calls += [
            (["audit", "--input", edges, "--format", "edges"], None),
            (["audit"], write_graph6(fixture("icosahedron")) + "\n"),
            (["audit", "--format", "edges"], write_edge_list(fixture("k33"))),
            (["audit", "--input", two_lines], None),
            (["audit", "--input", bad_byte], None),
            (["audit", "--input", missing], None),
            (["audit", "--format", "g6"], None),
        ]
    return calls


def transcript_digest(command: str, tmp_path, capsys, monkeypatch) -> str:
    tmp = str(tmp_path)

    def write(name: str, text: str) -> str:
        (tmp_path / name).write_bytes(text.encode("latin-1"))
        return "{tmp}/" + name

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FORESTCUT_WORKERS", raising=False)
    digest = hashlib.sha256()
    for argv, stdin in invocations(command, write):
        if stdin is not None:
            stream = io.TextIOWrapper(io.BytesIO(stdin.encode("latin-1")))
            monkeypatch.setattr("sys.stdin", stream)
        code = cli.run([arg.replace("{tmp}", tmp) for arg in argv])
        out, err = capsys.readouterr()
        record = (argv, stdin, code, out.replace(tmp, "{tmp}"), err.replace(tmp, "{tmp}"))
        digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(TRANSCRIPT_SHA256), ids=lambda c: c or "no-subcommand")
def test_transcript_pinned(command, tmp_path, capsys, monkeypatch):
    assert transcript_digest(command, tmp_path, capsys, monkeypatch) == TRANSCRIPT_SHA256[command]
