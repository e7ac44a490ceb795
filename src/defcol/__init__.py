"""defcol: a laboratory for defective colorings of planar graphs without
4-cycles and 5-cycles.

Exact constrained solver with an independent brute-force oracle, generators
for the gadget families and the triangle-attachment reduction, plane
embeddings with face tracing, and exact-rational charge accounting for the
three discharging rule systems.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the module that defines it; a name is imported from
# its module on first access, so importing one layer loads no other
_HOMES = {
    name: module
    for module, names in {
        "graphs": ("Graph", "Vertex", "make_graph", "delete_vertex", "cycles_of_length",
                   "girth", "is_c4c5_free", "is_connected", "dump_graph", "load_graph"),
        "embedding": ("PlaneEmbedding", "trace_faces", "check_planarity_certificate",
                      "embedding_from_positions", "dump_embedding", "load_embedding"),
        "coloring": ("ColoringSpec", "ConstraintSet", "SolveOutcome", "BRUTE_FORCE_CAP",
                     "is_valid_coloring", "solve", "brute_force_oracle", "always_extends"),
        "cnf": ("CnfDocument", "export_cnf"),
        "gadgets": ("GadgetResult", "triangle_link", "hub_gadget", "non_1k", "np_reduce"),
        "discharging": ("StructureTags", "ChargeLedger", "Transfer", "DischargeRuleSet",
                        "RULES_44", "RULES_35", "RULES_29", "RULESETS", "EmbeddingAnalysis",
                        "analyze", "classify", "initial_charges", "apply_ruleset",
                        "verify_conservation", "negative_elements", "ValidationReport",
                        "check_bad2_face_degrees", "check_big_face_bad2_capacity",
                        "check_vertex_profiles", "build_audit"),
    }.items()
    for name in names
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
