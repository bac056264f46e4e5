"""matchlab: exact perfect-matching experiments on desk-scale graphs.

Counting, enumeration, and uniform sampling of perfect matchings;
robust-expansion certificates; switching (exchange) graphs between
overlap strata; random-walk mixing checks in exact rational arithmetic;
and Poisson comparison of overlap distributions.
"""

from .errors import MatchlabError, ResourceLimitError
from .expansion import (
    ExpansionCertificate,
    ExpansionParams,
    Verdict,
    certify_bipartite,
    certify_exact,
    refute_sampled,
    robust_neighbourhood,
)
from .graphs import (
    Bipartition,
    Digraph,
    Graph,
    Matching,
    complete_digraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    random_regular,
    read_edge_list,
    regularity,
    remove_edge_set,
    to_bidirected,
)
from .pm import (
    StrataCounts,
    count_pm,
    count_pm_containing,
    enumerate_pm,
    sample_pm,
    stratify,
)
from .stats import (
    Pmf,
    avoidance_ratio,
    disjoint_probability,
    edge_probability,
    empirical_edge_freq,
    intersection_pmf,
    poisson_pmf,
    poisson_reference,
    tv_distance,
)
from .switching import (
    RatioReport,
    SwitchGraph,
    aux_vertex_set,
    build_aux_digraph,
    build_switch_graph,
    count_alternating_paths,
    ratio_report,
)
from .walks import (
    MixingParams,
    MixingReport,
    StochasticMatrix,
    count_paths,
    count_walks,
    matrix_power,
    mixing_bound_check,
    mixing_params,
    sandwich_check,
    transition_matrix,
    uniform_distribution,
)

__version__ = "0.1.0"
