"""Forest cuts and independent cuts in sparse graphs.

A vertex cut is a forest cut when the vertices removed induce a forest,
and an independent cut when they induce no edge at all.  This package
finds such cuts, generates the extremal families where they are unique or
absent, runs the constructive algorithm for plane triangulations, and
certifies the density bound 11n/5 - 18/5 with exact rational linear
programming.

The names below are the ones the README library sketch uses; everything
else is imported from its module (``forestcut.graph``, ``forestcut.cuts``,
``forestcut.constructions``, ``forestcut.planar``, ``forestcut.lp``,
``forestcut.verify``).  Every check on a graph, a parameter or an input
raises a ``ValueError`` whose message names the problem.
"""

from .constructions import k3_band_cycle
from .cuts import all_minimal_forest_cuts, find_forest_cut, witness_is_valid
from .lp import build_dual, certificate_dual_point, check_feasible, solve_primal_exact
from .planar import face_containing_edge, prop1_forest_cut, random_stacked_triangulation, reroot

__version__ = "0.1.0"
