"""One timed pass of one workload, run in a fresh interpreter.

Usage: ``python3 passes.py REQUEST_JSON``.  The request names the workload,
whether the pass is traced, the worker count and the input.  The last line
of standard output is one JSON object: the pass's wall time, its
reference-loop gauges (see ``Clock``), the items it
finished, the items whose correctness check failed, the peak resident set
of this process, the pass's output text and, for a traced pass, its
per-layer figures.

Only public functions of ``forestcut`` are called.  Correctness checks run
inside ``clock.excluded()``, so their time is not in the wall time.
"""

from __future__ import annotations

import io
import json
import math
import resource
import sys
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import forestcut
from forestcut import cli, constructions, cuts, graph, lp, planar, verify

import reference
from tracing import NullTracer, Tracer

CONNECTED_ORDER_7 = 853          # OEIS A001349
CENSUS = {6: 2, 7: 3}            # 3-connected graphs with m < 11n/5 - 18/5
GAUGE_EVERY_S = 0.25
CENSUS_ARGS = ["--min-connectivity", "3", "--max-edges-lt", "11/5n-18/5"]


class Clock:
    """Wall time of a pass, less the time spent in checks and in gauging.

    ``tick()`` times the reference loop whenever ``GAUGE_EVERY_S`` have
    passed since the last gauge.  A gauge is kept as ``(when, seconds,
    work)``: when it started on the system-wide monotonic clock, so the
    parent can pool it with the gauges of neighbouring passes, and the
    pass's timed work up to then.
    """

    def __init__(self):
        self.skipped = 0.0
        self.gauges: list[tuple[float, float]] = []
        self.start = perf_counter()
        self._gauge()

    def _gauge(self) -> None:
        t0 = perf_counter()
        work = t0 - self.start - self.skipped
        self.gauges.append((t0, reference.reference_s(), work))
        self.last_gauge = perf_counter()
        self.skipped += self.last_gauge - t0

    def tick(self) -> None:
        if perf_counter() - self.last_gauge >= GAUGE_EVERY_S:
            self._gauge()

    @contextmanager
    def excluded(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.skipped += perf_counter() - t0

    def stop(self) -> float:
        """The pass's wall time; gauges once more after it."""
        self._gauge()
        return self.gauges[-1][2]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def _density_passes(g: graph.Graph) -> bool:
    """The documented theorem-2 filter: order >= 3 and m < 11n/5 - 18/5."""
    return g.order >= 3 and 5 * g.size < 11 * g.order - 18


def _walk(g: graph.Graph, stop_at_forest: bool) -> tuple[int, int]:
    """Separators walked and forest separators among them, by the public stream."""
    walked = forest = 0
    for s in cuts.enumerate_minimal_separators(g):
        walked += 1
        if graph.induced_is_forest(g, s):
            forest += 1
            if stop_at_forest:
                break
    return walked, forest


class Pass:
    def __init__(self, request: dict):
        self.request = request
        self.traced = request["traced"]
        self.tracer = Tracer(request["pass_id"]) if self.traced else NullTracer()
        self.span = self.tracer.span
        self.items = 0
        self.failed = 0
        self.found = 0                                # find_forest_cut calls with a witness
        self.output = ""
        self.rss_mb = 0.0
        self.facts: dict[str, float] = {}
        self.orders: list[int] = []
        # Inputs of the finder calls, walked again for the separator counts.
        self.finder_graphs: list[graph.Graph] = []   # find_forest_cut
        self.full_walks: list[graph.Graph] = []      # all_minimal_forest_cuts

    def check(self, ok: bool, items: int = 1) -> None:
        if not ok:
            self.failed += items

    def finish(self, clock: Clock) -> float:
        wall = clock.stop()
        self.clock = clock
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return wall

    # -- corpus-sweep -------------------------------------------------------

    def corpus_sweep(self) -> float:
        path = self.request["input"]
        if not self.traced:
            clock = Clock()
            rc, out = _cli(["verify", "--claim", "theorem2", "--input", path,
                            "--workers", str(self.request["workers"])])
            wall = self.finish(clock)
            self.output = out
            lines = sum(1 for ln in Path(path).read_text().splitlines() if ln.strip())
            self.items = lines
            head, *flagged = out.splitlines()
            self.check(rc == (1 if flagged else 0)
                       and head == f"theorem2 {path} {lines} {len(flagged)}", lines - len(flagged))
            self.failed += len(flagged)
            return wall

        clock = Clock()
        flagged = []
        passing = []
        with self.span("pass.corpus-sweep"):
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    clock.tick()
                    with self.span("graph.parse_graph6"):
                        g = graph.parse_graph6(line)
                    self.items += 1
                    self.orders.append(g.order)
                    if _density_passes(g):
                        passing.append(g)
                        with self.span("cuts.find_forest_cut"):
                            w = cuts.find_forest_cut(g)
                        if w is None:
                            flagged.append(g)
                        else:
                            self.found += 1
        wall = self.finish(clock)
        self.finder_graphs = passing
        self.facts["verify.density_pass_ratio"] = len(passing) / self.items
        self.failed += len(flagged)
        # The entry points, each a root span of its own and outside the wall time.
        with self.span("cli.run"):
            rc, out = _cli(["verify", "--claim", "theorem2", "--input", path, "--workers", "1"])
        with self.span("verify.run_check"):
            report = verify.run_check("theorem2", verify.ingest_graph6(path))
        replayed = sorted(verify.canonical_graph6(g) for g in flagged)
        self.check(rc == 0 and report.format() == out
                   and out.splitlines()[1:] == replayed, self.items)
        self.output = out
        return wall

    # -- builtin-sweep ------------------------------------------------------

    def builtin_sweep(self) -> float:
        claims = self.request["input"]["claims"]
        clock = Clock()
        with self.span("pass.builtin-sweep"):
            if self.traced:
                with self.span("verify.enumerate_connected_graphs"):
                    corpus = list(verify.enumerate_connected_graphs(7))
                reports = []
                for claim in claims:
                    clock.tick()
                    with self.span("verify.run_check"):
                        reports.append(verify.run_check(claim, corpus, "builtin-n7", 1).format())
            else:
                reports = []
                for claim in claims:
                    clock.tick()
                    reports.append(_cli(["verify", "--claim", claim, "--builtin-n", "7",
                                         "--workers", "1"])[1])
            with self.span("cli.run"):
                rc, census7 = _cli(["enumerate", "--n", "7"] + CENSUS_ARGS)
        wall = self.finish(clock)
        self.output = "".join(reports) + census7
        for claim, text in zip(claims, reports):
            self.items += CONNECTED_ORDER_7
            flagged = len(text.splitlines()) - 1
            self.check(text.startswith(f"{claim} builtin-n7 {CONNECTED_ORDER_7} "), CONNECTED_ORDER_7 - flagged)
            self.failed += flagged
        rc6, census6 = _cli(["enumerate", "--n", "6"] + CENSUS_ARGS)
        census_ok = (rc == rc6 == 0 and len(census7.split()) == CENSUS[7]
                     and len(census6.split()) == CENSUS[6])
        self.check(census_ok, self.items - self.failed)
        self.orders = [7]
        if self.traced:
            self.facts["verify.enumerate_connected_graphs.graphs"] = len(corpus)
            self.facts["verify.density_pass_ratio"] = (
                sum(map(_density_passes, corpus)) / len(corpus))
        return wall

    # -- lp-certificate -----------------------------------------------------

    def lp_certificate(self) -> float:
        spec = self.request["input"]
        rows = 0
        clock = Clock()
        with self.span("pass.lp-certificate"):
            for n in spec["certify"]:
                clock.tick()
                with self.span("lp.build_dual"):
                    dual = lp.build_dual(n)
                with self.span("lp.certificate_dual_point"):
                    point = lp.certificate_dual_point(n).assignment()
                with self.span("lp.check_feasible"):
                    report = lp.check_feasible(dual, point)
                self.items += 1
                with clock.excluded():
                    rows += len(report.rows)
                    self.check(report.feasible
                               and lp.objective_value(dual, point) == Fraction(11 * n, 5))
            for n in spec["solve"]:
                clock.tick()
                with self.span("lp.solve_primal_exact"):
                    value = lp.solve_primal_exact(n)
                self.items += 1
                with clock.excluded():
                    self.check(value >= Fraction(11 * n, 5))
        wall = self.finish(clock)
        self.orders = spec["certify"] + spec["solve"]
        self.facts["lp.check_feasible.rows"] = rows
        return wall

    # -- families -----------------------------------------------------------

    def families(self) -> float:
        spec = self.request["input"]
        span = self.span
        clock = Clock()
        with span("pass.families"):
            for t in spec["stacked"]:
                clock.tick()
                with span("planar.random_stacked_triangulation"):
                    tri = planar.random_stacked_triangulation(t["n"], t["seed"])
                g = tri.graph
                edges = list(g.edges())
                for pick in t["edge_picks"]:
                    u, v = edges[int(pick * len(edges))]
                    with span("planar.face_containing_edge"):
                        face = planar.face_containing_edge(tri.embedding, u, v)
                    with span("planar.reroot"):
                        rooted = planar.reroot(tri, face)
                    with span("planar.prop1_forest_cut"):
                        cut = planar.prop1_forest_cut(rooted, (u, v))
                    with clock.excluded():
                        h = graph.delete_edge(g, u, v)
                        self.check(graph.is_vertex_cut(h, cut) and graph.induced_is_forest(h, cut))
                with span("cuts.find_forest_cut"):
                    none = cuts.find_forest_cut(g)
                x, y = tri.outer_face[:2]
                with span("graph.delete_edge"):
                    g_xy = graph.delete_edge(g, x, y)
                with span("cuts.find_forest_cut"):
                    w = cuts.find_forest_cut(g_xy)
                self.items += 1
                self.found += (none is not None) + (w is not None)
                with clock.excluded():
                    self.check(g.order == t["n"] and g.size == 3 * t["n"] - 6 and none is None
                               and w is not None and cuts.witness_is_valid(g_xy, w))
                    self.finder_graphs += [g, g_xy]
            for k in spec["gk"]:
                clock.tick()
                with span("constructions.conjecture2_family"):
                    g = constructions.conjecture2_family(k)
                with span("cuts.all_minimal_forest_cuts"):
                    found = cuts.all_minimal_forest_cuts(g)
                self.items += 1
                with clock.excluded():
                    self.check(bool(found) and all(
                        graph.is_vertex_cut(g, s) and graph.induced_is_forest(g, s) for s in found))
                    self.full_walks.append(g)
            for b in spec["band"]:
                clock.tick()
                with span("constructions.k3_band_cycle"):
                    g = constructions.k3_band_cycle(b["n"], b["c"])
                with span("cuts.find_forest_cut"):
                    w = cuts.find_forest_cut(g)
                self.items += 1
                self.found += w is not None
                with clock.excluded():
                    # {0, 1, 2} is the band's only minimal forest cut.
                    self.check(w is not None and w.cut == 0b111 and cuts.witness_is_valid(g, w))
                    self.finder_graphs.append(g)
            for k in spec["cdu"]:
                clock.tick()
                with span("constructions.cycle_diagonals_universal"):
                    g = constructions.cycle_diagonals_universal(k)
                with span("cuts.find_forest_cut"):
                    w = cuts.find_forest_cut(g)
                self.items += 1
                self.found += w is not None
                with clock.excluded():
                    # Every vertex cut of cdu contains the universal vertex 2k.
                    self.check(w is not None and w.cut >> (2 * k) & 1 == 1
                               and cuts.witness_is_valid(g, w))
                    self.finder_graphs.append(g)
        wall = self.finish(clock)
        self.orders = [t["n"] for t in spec["stacked"]] + [3 * k + 4 for k in spec["gk"]] + [
            b["n"] for b in spec["band"]] + [2 * k + 1 for k in spec["cdu"]]
        return wall

    # -- per-layer figures of a traced pass ---------------------------------

    def layers(self) -> dict[str, float]:
        named = self.tracer.by_name()

        def calls(name):
            return named.get(name, {}).get("calls", 0)

        def self_s(*names):
            return sum((named.get(n, {}).get("self_s", 0.0) for n in names), 0.0)

        walked = forest = calls_walked = 0
        for g in self.finder_graphs:
            # With a universal vertex the finder searches G - u instead.
            if cuts.universal_vertex_reduction(g) is None:
                a, b = _walk(g, stop_at_forest=True)
                walked, forest, calls_walked = walked + a, forest + b, calls_walked + 1
        for g in self.full_walks:
            a, b = _walk(g, stop_at_forest=False)
            walked, forest, calls_walked = walked + a, forest + b, calls_walked + 1

        durations = sorted(named.get("cuts.find_forest_cut", {}).get("durations", []))

        def quantile_us(q):
            if not durations:
                return 0.0
            return durations[max(0, math.ceil(q * len(durations)) - 1)] * 1e6

        finder_calls = calls("cuts.find_forest_cut")
        out = {
            "graph.parse_graph6.calls": calls("graph.parse_graph6"),
            "graph.parse_graph6.self_s": self_s("graph.parse_graph6"),
            "cuts.find_forest_cut.calls": finder_calls,
            "cuts.find_forest_cut.self_s": self_s("cuts.find_forest_cut"),
            "cuts.find_forest_cut.p50_us": quantile_us(0.50),
            "cuts.find_forest_cut.p99_us": quantile_us(0.99),
            "cuts.find_forest_cut.found_ratio": (
                self.found / finder_calls if finder_calls else 0.0),
            "cuts.separators_per_call": walked / calls_walked if calls_walked else 0.0,
            "cuts.forest_hit_ratio": forest / walked if walked else 0.0,
            "cuts.all_minimal_forest_cuts.self_s": self_s("cuts.all_minimal_forest_cuts"),
            "verify.enumerate_connected_graphs.self_s": self_s("verify.enumerate_connected_graphs"),
            "verify.enumerate_connected_graphs.graphs": 0,
            "verify.run_check.calls": calls("verify.run_check"),
            "verify.run_check.self_s": self_s("verify.run_check"),
            "verify.density_pass_ratio": 0.0,
            "lp.build_dual.self_s": self_s("lp.build_dual"),
            "lp.certificate_dual_point.self_s": self_s("lp.certificate_dual_point"),
            "lp.check_feasible.self_s": self_s("lp.check_feasible"),
            "lp.check_feasible.rows": 0,
            "lp.solve_primal_exact.calls": calls("lp.solve_primal_exact"),
            "lp.solve_primal_exact.self_s": self_s("lp.solve_primal_exact"),
            "planar.random_stacked_triangulation.self_s": self_s("planar.random_stacked_triangulation"),
            "planar.prop1_forest_cut.self_s": self_s("planar.prop1_forest_cut"),
            "planar.face_containing_edge.self_s": self_s("planar.face_containing_edge"),
            "constructions.self_s": self_s(*(n for n in named if n.startswith("constructions."))),
            "cli.run.calls": calls("cli.run"),
            "cli.run.wall_s": self_s("cli.run"),
            "input.order_min": min(self.orders),
            "input.order_max": max(self.orders),
        }
        out.update((k, v) for k, v in self.facts.items() if k in out)
        return out


def main(request_json: str) -> None:
    request = json.loads(request_json)
    src = Path(request["src"]).resolve()
    if src not in Path(forestcut.__file__).resolve().parents:
        raise SystemExit(f"imported forestcut from {forestcut.__file__}, not from {src}")
    p = Pass(request)
    wall = getattr(p, request["workload"].replace("-", "_"))()
    result = {"wall": wall, "gauges": p.clock.gauges,
              "items": p.items, "failed": p.failed, "rss_mb": p.rss_mb, "output": p.output}
    if p.traced:
        result["layers"] = p.layers()
        p.tracer.write(request["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
