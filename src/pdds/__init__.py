"""Perfect distance-dominating sets on grids and tori.

Construct group-homomorphism codes, verify the defining property on finite
tori, decode by syndrome lookup, and search small tori exhaustively for
existence evidence.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .abelian import (
    AbelianGroup,
    BijectionResult,
    Homomorphism,
    check_bijection,
    enumerate_abelian_groups,
    molnar_k_set,
    torus_periods,
)
from .constructions import (
    FAMILIES,
    Construction,
    Tile,
    minkowski_p2,
    nonlattice_p2_example,
    pdds1_path,
    pdds1_q3,
    pdds1_square,
    pdds_t_box2xk_2d,
    pdds_t_path_2d,
    plc_n1,
)
from .decoder import DecodeResult, SyndromeTable, build_syndrome_table, decode
from .lattice import (
    BoxSpec,
    Shape,
    box_shape,
    is_box,
    lee_distance,
    t_neighborhood,
    translate,
)
from .render import RenderSpec, render
from .search import (
    Placement,
    SearchProblem,
    SearchResult,
    enumerate_placements,
    exact_cover_search,
)
from .verifier import (
    PDDSInstance,
    VerificationReport,
    Violation,
    instantiate_on_torus,
    is_lattice_like,
    verify_partition,
    verify_pdds,
)

__all__ = [
    "__version__",
    "AbelianGroup", "BijectionResult", "Homomorphism", "check_bijection",
    "enumerate_abelian_groups", "molnar_k_set", "torus_periods",
    "FAMILIES", "Construction", "Tile", "minkowski_p2",
    "nonlattice_p2_example", "pdds1_path", "pdds1_q3", "pdds1_square",
    "pdds_t_box2xk_2d", "pdds_t_path_2d", "plc_n1",
    "DecodeResult", "SyndromeTable", "build_syndrome_table", "decode",
    "BoxSpec", "Shape", "box_shape", "is_box",
    "lee_distance", "t_neighborhood", "translate",
    "RenderSpec", "render",
    "Placement", "SearchProblem", "SearchResult", "enumerate_placements",
    "exact_cover_search",
    "PDDSInstance", "VerificationReport", "Violation", "instantiate_on_torus",
    "is_lattice_like", "verify_partition", "verify_pdds",
]
