"""Command-line surface: check, enumerate, verify, gen, planar-cut, lp, audit.

Exit codes: 0 for success with no counterexamples, 1 when a verification
run flags counterexamples, 2 for usage or input errors.  Output is plain
line-oriented text and identical invocations print identical bytes.  Every
``--input``, a file or ``-`` for stdin, is read through ``graph.read_lines``,
so the same bytes give the same answer however they arrive.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import constructions, cuts, lp, planar, verify
from .graph import (
    Graph,
    _ascii_ints,
    _text_lines,
    iter_bits,
    parse_edge_list,
    parse_graph6,
    read_lines,
    write_edge_list,
    write_graph6,
)


def _load_graph(path: str, fmt: str) -> Graph:
    text = "".join(read_lines(path))
    if fmt == "graph6":
        lines = _text_lines(text)
        if len(lines) != 1:
            raise ValueError(f"expected one graph6 line, got {len(lines)}")
        return parse_graph6(lines[0])
    return parse_edge_list(text)


def _emit_graph(g: Graph, fmt: str) -> None:
    if fmt == "graph6":
        print(write_graph6(g))
    else:
        print(write_edge_list(g), end="")


def _print_witness(w: cuts.CutWitness | None) -> None:
    if w is None:
        print("NONE")
        return
    print("witness", *iter_bits(w.cut))
    print("kind", w.kind)
    print("separates", w.rep_a, w.rep_b)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.kind == "forest" and args.avoid is not None:
        raise ValueError("--avoid applies only to --kind independent")
    if args.kind == "independent" and args.exhaustive:
        raise ValueError("--exhaustive applies only to --kind forest")
    g = _load_graph(args.input, args.format)
    if args.kind == "forest":
        finder = cuts.find_forest_cut_exhaustive if args.exhaustive else cuts.find_forest_cut
        witness = finder(g)
    elif args.avoid is not None:
        witness = cuts.find_independent_cut_avoiding(g, args.avoid)
    else:
        witness = cuts.find_independent_cut(g)
    _print_witness(witness)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    density = verify.Density.parse(args.max_edges_lt) if args.max_edges_lt else None
    for g in verify.enumerate_connected_graphs(args.n):
        if verify.sparse_k_connected(g, density, args.min_connectivity):
            _emit_graph(g, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.builtin_n is not None:
        corpus = verify.enumerate_connected_graphs(args.builtin_n)
        description = f"builtin-n{args.builtin_n}"
        report = verify.run_check(args.claim, corpus, description, args.workers)
    else:
        source = verify.ingest_graph6(args.input)
        report = verify.run_check(args.claim, source, workers=args.workers)
    print(report.format(), end="")
    return 1 if report.counterexamples else 0


def _parse_vertices(option: str, text: str, count: int | None = None) -> tuple[int, ...]:
    """The comma-separated vertex ids given to ``option``, ``count`` of them if set,
    each token one integer read as the file formats read one (``_ascii_ints``)."""
    try:
        vertices = tuple(v for tok in text.split(",") for (v,) in [_ascii_ints(tok)])
    except ValueError:
        vertices = None
    if vertices is None or count not in (None, len(vertices)):
        want = f"{count} comma-separated integers" if count else "comma-separated integers"
        raise ValueError(f"{option} expects {want}, got {text!r}")
    return vertices


def _glue(a: str, b: str, clique_a: str, clique_b: str) -> Graph:
    return constructions.clique_glue(
        constructions.fixture(a), constructions.fixture(b),
        _parse_vertices("--clique-a", clique_a), _parse_vertices("--clique-b", clique_b),
    )


# each --family of gen: its builder, and the options it is called with as argparse dests
_GEN_FAMILIES = {
    "fixture": (constructions.fixture, ("name",)),
    "gk": (constructions.conjecture2_family, ("k",)),
    "band": (constructions.k3_band_cycle, ("n", "c")),
    "cdu": (constructions.cycle_diagonals_universal, ("k",)),
    "glue": (_glue, ("a", "b", "clique_a", "clique_b")),
    "stacked": (planar.random_stacked_triangulation, ("n", "seed")),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    build, dests = _GEN_FAMILIES[args.family]
    given = {dest: getattr(args, dest) for _, family in _GEN_FAMILIES.values() for dest in family}
    stray = [dest for dest, value in given.items() if value is not None and dest not in dests]
    if stray:
        raise ValueError(f"--family {args.family} does not take --{stray[0].replace('_', '-')}")
    if given["seed"] is None:  # only --family stacked takes a seed, and it defaults to 0
        given["seed"] = 0
    values = [given[dest] for dest in dests]
    if None in values:
        option = "--" + dests[values.index(None)].replace("_", "-")
        raise ValueError(f"--family {args.family} needs {option}")
    stacked = args.family == "stacked"
    if args.format == "rot" and not stacked:
        raise ValueError("rotation output is only available for --family stacked")
    built = build(*values)
    if args.format == "rot":
        print(planar.write_rotation_system(built.embedding), end="")
    else:
        _emit_graph(built.graph if stacked else built, args.format)
    return 0


def _cmd_planar_cut(args: argparse.Namespace) -> int:
    u, v = _parse_vertices("--edge", args.edge, 2)
    system = planar.parse_rotation_system("".join(read_lines(args.input)))
    outer = planar.face_containing_edge(system, u, v)
    tri = planar.PlaneTriangulation(system, outer)
    cut = planar.prop1_forest_cut(tri, (u, v))
    print("cut", *iter_bits(cut))
    return 0


def _cmd_lp(args: argparse.Namespace) -> int:
    point = lp.certificate_dual_point(args.n).assignment()
    dual = lp.build_dual(args.n)
    report = lp.check_feasible(dual, point)
    for row in report.rows:
        print(row.row_id, row.relation, row.lhs, row.rhs, row.slack)
    if not report.feasible:
        print("INFEASIBLE")
        return 1
    # a feasible dual point's objective is a lower bound on the primal optimum
    print("objective-bound", lp.objective_value(dual, point))
    if args.solve:
        print("primal-optimum", lp.solve_primal_exact(args.n))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    record = verify.audit_claim_inequalities(g)
    for name, value in vars(record).items():
        print(name, "holds" if value else "FAILS")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(prog="forestcut")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="find a forest or independent cut in one graph")
    p.add_argument("--input", default="-", help="graph file, or - for stdin")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.add_argument("--kind", choices=("forest", "independent"), default="forest")
    p.add_argument("--avoid", type=int, default=None, help="vertex the independent cut must avoid")
    p.add_argument("--exhaustive", action="store_true", help="use the brute-force oracle")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="stream built-in connected graphs with filters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-connectivity", type=int, default=0)
    p.add_argument("--max-edges-lt", default=None, metavar="EXPR",
                   help="keep graphs with m < slope*n+offset, e.g. 11/5n-18/5")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="scan a corpus for counterexamples to a claim")
    p.add_argument("--claim", choices=verify.CLAIM_NAMES, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin-n", type=int, default=None)
    group.add_argument("--input", default=None, help="graph6 corpus file, or - for stdin")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit one of the named constructions")
    p.add_argument("--family", choices=tuple(_GEN_FAMILIES), required=True)
    p.add_argument("--name", default=None, help="fixture name")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed for --family stacked (default 0)")
    p.add_argument("--a", default=None, help="glue operand fixture")
    p.add_argument("--b", default=None, help="glue operand fixture")
    p.add_argument("--clique-a", default=None, help="comma-separated clique in operand a")
    p.add_argument("--clique-b", default=None, help="comma-separated clique in operand b")
    p.add_argument("--format", choices=("graph6", "edges", "rot"), default="graph6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("planar-cut", help="run the triangulation forest-cut construction")
    p.add_argument("--input", required=True, help="rotation system file")
    p.add_argument("--edge", required=True, metavar="U,V")
    p.set_defaults(func=_cmd_planar_cut)

    p = sub.add_parser("lp", help="print the dual certificate report for a given n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--solve", action="store_true", help="also solve the primal exactly")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("audit", help="evaluate the counting inequalities on one graph")
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.set_defaults(func=_cmd_audit)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
