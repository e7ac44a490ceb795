"""defcol: a laboratory for defective colorings of planar graphs without
4-cycles and 5-cycles.

Exact constrained solver with an independent brute-force oracle, generators
for the gadget families and the triangle-attachment reduction, plane
embeddings with face tracing, and exact-rational charge accounting for the
three discharging rule systems.
"""

from .graphs import (
    Graph,
    Vertex,
    cycles_of_length,
    delete_vertex,
    dump_graph,
    girth,
    is_c4c5_free,
    is_connected,
    load_graph,
    make_graph,
)
from .embedding import (
    PlaneEmbedding,
    check_planarity_certificate,
    dump_embedding,
    embedding_from_positions,
    load_embedding,
    trace_faces,
)
from .coloring import (
    BRUTE_FORCE_CAP,
    ColoringSpec,
    ConstraintSet,
    SolveOutcome,
    always_extends,
    brute_force_oracle,
    is_valid_coloring,
    solve,
)
from .cnf import CnfDocument, export_cnf
from .gadgets import GadgetResult, hub_gadget, non_1k, np_reduce, triangle_link
from .discharging import (
    ChargeLedger,
    DischargeRuleSet,
    EmbeddingAnalysis,
    RULES_29,
    RULES_35,
    RULES_44,
    RULESETS,
    StructureTags,
    Transfer,
    ValidationReport,
    analyze,
    apply_ruleset,
    build_audit,
    check_bad2_face_degrees,
    check_big_face_bad2_capacity,
    check_vertex_profiles,
    classify,
    initial_charges,
    negative_elements,
    verify_conservation,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Vertex",
    "make_graph",
    "delete_vertex",
    "cycles_of_length",
    "girth",
    "is_c4c5_free",
    "is_connected",
    "dump_graph",
    "load_graph",
    "PlaneEmbedding",
    "trace_faces",
    "check_planarity_certificate",
    "embedding_from_positions",
    "dump_embedding",
    "load_embedding",
    "ColoringSpec",
    "ConstraintSet",
    "SolveOutcome",
    "BRUTE_FORCE_CAP",
    "is_valid_coloring",
    "solve",
    "brute_force_oracle",
    "always_extends",
    "CnfDocument",
    "export_cnf",
    "GadgetResult",
    "triangle_link",
    "hub_gadget",
    "non_1k",
    "np_reduce",
    "StructureTags",
    "ChargeLedger",
    "Transfer",
    "DischargeRuleSet",
    "RULES_44",
    "RULES_35",
    "RULES_29",
    "RULESETS",
    "EmbeddingAnalysis",
    "analyze",
    "classify",
    "initial_charges",
    "apply_ruleset",
    "verify_conservation",
    "negative_elements",
    "ValidationReport",
    "check_bad2_face_degrees",
    "check_big_face_bad2_capacity",
    "check_vertex_profiles",
    "build_audit",
]
