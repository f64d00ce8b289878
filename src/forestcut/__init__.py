"""Forest cuts and independent cuts in sparse graphs.

A vertex cut is a forest cut when the vertices removed induce a forest,
and an independent cut when they induce no edge at all.  This package
finds such cuts, generates the extremal families where they are unique or
absent, runs the constructive algorithm for plane triangulations, and
certifies the density bound 11n/5 - 18/5 with exact rational linear
programming.
"""

from .graph import (
    Graph,
    DegreeProfile,
    build_graph,
    components,
    degree_profile,
    degree_sum,
    induced_is_forest,
    induced_subgraph,
    is_connected,
    is_independent_set,
    is_vertex_cut,
    iter_bits,
    parse_edge_list,
    parse_graph6,
    vertex_connectivity_at_least,
    vertex_set,
    write_edge_list,
    write_graph6,
)
from .cuts import (
    CutWitness,
    all_minimal_forest_cuts,
    enumerate_minimal_separators,
    find_forest_cut,
    find_forest_cut_exhaustive,
    find_independent_cut,
    find_independent_cut_avoiding,
    universal_vertex_reduction,
    witness_is_valid,
)
from .constructions import (
    GlueSpec,
    FIXTURE_NAMES,
    clique_glue,
    conjecture2_family,
    cycle_diagonals_universal,
    fixture,
    k3_band_cycle,
)
from .planar import (
    PlaneTriangulation,
    RotationSystem,
    face_containing_edge,
    faces,
    icosahedron_triangulation,
    is_plane_triangulation,
    k4_triangulation,
    octahedron_triangulation,
    parse_rotation_system,
    prop1_forest_cut,
    random_stacked_triangulation,
    reroot,
    stack_vertex,
    triangle_triangulation,
    write_rotation_system,
)
from .lp import (
    DualPoint,
    FeasibilityReport,
    LpInstance,
    LpRow,
    build_dual,
    build_primal,
    check_feasible,
    mechanical_dual,
    objective_value,
    certificate_dual_point,
    solve_primal_exact,
    weak_duality_bound,
)
from .verify import (
    AuditRecord,
    CheckReport,
    audit_claim_inequalities,
    canonical_form,
    canonical_graph6,
    enumerate_connected_graphs,
    enumerate_graphs,
    figure1_census,
    ingest_graph6,
    run_check,
)

__version__ = "0.1.0"
