"""Rate-distortion analysis of distributed coding on Gauss-Markov trees.

The library computes both descriptions of the quadratic rate region of a
tree source observed at its leaves: the achievable (test-channel) side and
the converse (noise-quantization) side, plus the structural tooling around
them: exact Markov-graph reading of a covariance, three-variable tree
embeddings with converse witnesses, reduction of arbitrary trees to complete
binary many-help-one form, a modular-lattice coding counterexample to
separate quantization, and Monte Carlo robustness checks for non-Gaussian
sources. Information quantities are in nats unless a name says bits.
"""

from .errors import DomainError, GmtreeError, ModelError
from .gauss import Cov, conditional_cov, gaussian_cmi, llse_coefficients, mmse, sample_gaussian
from .trees import (
    BinaryTreeSource,
    MarkovTree,
    TreeNode,
    binarize,
    binary_cov,
    fit_tree_params,
    reroot,
    sample_tree,
    to_markov_tree,
    tree_to_cov,
    validate_markov,
)
from .embedding import (
    TripleViolation,
    Witness,
    check_embed_conditions,
    converse_witness,
    embed3,
    markov_graph,
    markov_graph_exact,
)
from .inner import (
    ChannelContext,
    InnerSolution,
    RankFunction,
    build_joint,
    distortion,
    min_weighted_sum,
    polymatroid_audit,
    rank_f,
    region_slice,
    tabulate_rank,
    vertex_rates,
    weight_order,
)
from .outer import (
    MatchupReport,
    OuterSolution,
    equality_rates,
    f_node,
    frd_contains,
    matchup_verify,
    max_root_rate,
    rd_out_min_weighted,
    rd_out_subset_bound,
    telescope_f,
)
from .lattice import (
    DivergenceReport,
    LatticePair,
    McEstimate,
    divergence_report,
    lattice_analytic_bound,
    lattice_decode,
    lattice_encode,
    lattice_mc_distortion,
    lattice_sum_rate,
    lattice_tail_prob,
    separation_min_sum_rate,
)
from .worstcase import LlseReport, alternate_sampler, llse_equivalence_check
from .modelio import (
    CovarianceModel,
    binary_to_obj,
    cov_to_obj,
    load_model,
    parse_model,
    to_fraction,
    tree_to_obj,
)
from . import fixtures as _fixtures

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Path of a bundled example model: allquarter3, star4, or figure_tree."""
    if not name.endswith(".json"):
        name += ".json"
    return str(_fixtures.path(name))

__all__ = [
    "__version__",
    "GmtreeError",
    "ModelError",
    "DomainError",
    "Cov",
    "conditional_cov",
    "gaussian_cmi",
    "llse_coefficients",
    "mmse",
    "sample_gaussian",
    "TreeNode",
    "MarkovTree",
    "BinaryTreeSource",
    "tree_to_cov",
    "fit_tree_params",
    "validate_markov",
    "sample_tree",
    "reroot",
    "binarize",
    "to_markov_tree",
    "binary_cov",
    "markov_graph",
    "markov_graph_exact",
    "check_embed_conditions",
    "embed3",
    "converse_witness",
    "TripleViolation",
    "Witness",
    "build_joint",
    "rank_f",
    "distortion",
    "tabulate_rank",
    "RankFunction",
    "polymatroid_audit",
    "weight_order",
    "vertex_rates",
    "ChannelContext",
    "InnerSolution",
    "min_weighted_sum",
    "region_slice",
    "f_node",
    "frd_contains",
    "telescope_f",
    "rd_out_subset_bound",
    "rd_out_min_weighted",
    "equality_rates",
    "max_root_rate",
    "matchup_verify",
    "OuterSolution",
    "MatchupReport",
    "LatticePair",
    "lattice_encode",
    "lattice_decode",
    "lattice_mc_distortion",
    "lattice_tail_prob",
    "lattice_analytic_bound",
    "lattice_sum_rate",
    "separation_min_sum_rate",
    "divergence_report",
    "McEstimate",
    "DivergenceReport",
    "alternate_sampler",
    "llse_equivalence_check",
    "LlseReport",
    "CovarianceModel",
    "to_fraction",
    "parse_model",
    "load_model",
    "cov_to_obj",
    "tree_to_obj",
    "binary_to_obj",
    "fixture_path",
]
