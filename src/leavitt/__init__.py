"""Workbench for finitely presented directed graphs and their path algebras.

Graphs are given by named vertices and named edge bundles, where a
bundle carries a positive integer multiplicity or ``OMEGA`` (countably
many parallel edges).  On top of that the package computes boundary
paths and their shift-tail classes, hereditary saturated vertex sets and
admissible pairs with their quotient and ideal graphs, the Leavitt path
algebra over the rationals with exact arithmetic, irreducible
boundary-path representations, matrix-unit systems at line points, the
Naimark uniqueness decision, composition series, and the countable
versus uncountable spectrum trichotomy.
"""

from .boundary import (
    BoundaryPath,
    ClassCensus,
    TailClass,
    boundary_path,
    class_of,
    enumerate_classes,
    finite_boundary_paths,
    render_boundary_path,
    shift,
    st_equivalent,
)
from .errors import (
    ContractError,
    GraphError,
    InternalInvariantError,
    NotFinitelyPresentableError,
    SizeGuardError,
    UnknownNameError,
    UnsupportedGraphError,
)
from .graph import (
    OMEGA,
    Bundle,
    EdgeRef,
    Graph,
    Multiplicity,
    Path,
    VertexClass,
    breaking_vertices,
    classify_vertex,
    concat,
    count_entry_paths,
    count_paths_into,
    downward_directed,
    entry_paths,
    escaping_edges,
    has_cycle,
    is_hereditary,
    is_omega,
    is_saturated,
    is_singular,
    line_points,
    paths_into,
    render_edge_ref,
    render_path,
    saturate,
    saturation_stages,
    simple_cycles,
    singular_vertices,
    strongly_connected_components,
    tree_of,
    vertices_on_cycles,
)
from .ideals import (
    AdmissiblePair,
    admissible_pair,
    enumerate_admissible_pairs,
    ideal_graph,
    quotient_graph,
    quotient_with_map,
)
from .algebra import (
    ZERO,
    AlgebraElement,
    Monomial,
    add,
    degree_components,
    dimension,
    edge_element,
    edge_star_element,
    element,
    equals,
    gap_projection,
    monomial,
    multiply,
    multiply_monomials,
    normal_form,
    one,
    parse_element,
    parse_path,
    render_element,
    render_monomial,
    scale,
    star,
    subtract,
    vertex_projection,
)
from .repn import (
    BoundaryRepresentation,
    MatrixUnitSystem,
    blocks_invariant,
    build_rho,
    decompose_blocks,
    evaluate,
    hom_space_dim,
    lambda_index_set,
    lambda_size,
    lambda_texts,
    matrix_units,
    naimark_isomorphism,
    verify_irreducible_block,
    verify_relations,
)
from .naimark import (
    CompositionFactor,
    CompositionSeries,
    NaimarkReport,
    SpectrumEntry,
    TrichotomyReport,
    check_condition4,
    check_condition5,
    composition_series,
    naimark_decision,
    trichotomy,
)
from .fixtures import FIXTURES

__all__ = [name for name in dir() if not name.startswith("_")]
