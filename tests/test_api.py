"""The package's public names, pinned so that any change to them shows in a diff."""

import defcol

PUBLIC = [
    "BRUTE_FORCE_CAP",
    "ChargeLedger",
    "CnfDocument",
    "ColoringSpec",
    "ConstraintSet",
    "DischargeRuleSet",
    "EmbeddingAnalysis",
    "GadgetResult",
    "Graph",
    "PlaneEmbedding",
    "RULESETS",
    "RULES_29",
    "RULES_35",
    "RULES_44",
    "SolveOutcome",
    "StructureTags",
    "Transfer",
    "ValidationReport",
    "Vertex",
    "always_extends",
    "analyze",
    "apply_ruleset",
    "brute_force_oracle",
    "build_audit",
    "check_bad2_face_degrees",
    "check_big_face_bad2_capacity",
    "check_planarity_certificate",
    "check_vertex_profiles",
    "classify",
    "cycles_of_length",
    "delete_vertex",
    "dump_embedding",
    "dump_graph",
    "embedding_from_positions",
    "export_cnf",
    "girth",
    "hub_gadget",
    "initial_charges",
    "is_c4c5_free",
    "is_connected",
    "is_valid_coloring",
    "load_embedding",
    "load_graph",
    "make_graph",
    "negative_elements",
    "non_1k",
    "np_reduce",
    "solve",
    "trace_faces",
    "triangle_link",
    "verify_conservation",
]


def test_public_names_are_pinned():
    assert sorted(defcol.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in defcol.__all__:
        assert hasattr(defcol, name), name
