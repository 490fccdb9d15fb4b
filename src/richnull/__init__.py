"""Maximum-entropy network null models constrained by degree and rich-club
structure, with correlation diagnostics and soft community detection.

The public names load on first access (PEP 562), so ``import richnull``
and each command-line call import only the submodules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining submodule -> its public names; each loads on first access
_EXPORTS = {
    "baselines": "NGModel RR1 RR2 newman_girvan rr_randomize",
    "communities": "Dendrogram ModularityMatrix Partition build_modularity_matrix modularity_value"
    " recursive_partition soft_modularity_matrix spectral_bipartition standard_modularity_matrix",
    "consensus": "RunSet cooccurrence invariant_cores randomized_rank_runs run_pipeline",
    "diagnostics": "DiagnosticsCurve aggregate_knn_deviation coefficient_of_variation"
    " detect_cutoff_from_ipr inverse_participation ipr_curve knn_data knn_ensemble"
    " uncorrelated_knn variation_curve",
    "ensemble": "LinkProbabilityModel compute_weights entropy_fast"
    " expected_multiedge_pairs row_sums sample_network total_probability verify_soft_constraints",
    "errors": "EdgeListError InfeasibleConstraints InfeasibleNG PowerIterationError"
    " RichNullError SingularWeights",
    "graph": "MAXIMIZE MINIMIZE ME1 ME2 ME3 NG RANKED Graph Multigraph Ranking"
    " cutoff_degree karate_club kplus_from_graph load_edge_list rank_nodes rich_club_coefficient",
    "search": "kplus_bounds optimal_kplus",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
