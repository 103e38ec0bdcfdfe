"""Certified lower bounds on distances to structured channel and state sets.

The library turns achievable entropic quantities (coherent information and
friends) into rigorous lower bounds on diamond-norm distance from a channel
to the degradable, antidegradable, and entanglement-breaking sets, and on
trace-norm distance from a bipartite state to the separable and product
sets, by inverting the matching continuity bounds.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundEntry,
    BoundReport,
    Formula,
    antidegradable_distance_lower,
    assemble_report,
    assemble_state_report,
    channel_distance_kernel,
    degradable_distance_lower,
    entanglement_breaking_distance_lower,
    product_distance_lower,
    separable_distance_lower,
    state_distance_kernel,
)
from .channels import (
    KrausChannel,
    channel_coherent_information,
    channel_from_dict,
    channel_to_dict,
    choi,
    complement,
    completely_depolarizing,
    depolarizing,
    erasure,
    identity_embedding,
    load_channel,
    load_state,
    random_channel,
    reverse_coherent_information,
    save_channel,
    save_state,
    state_from_dict,
    state_to_dict,
    tensor_with_identity,
)
from .entropy import (
    binary_entropy,
    g_correction,
    max_coherent_information,
    mutual_information,
    von_neumann_entropy,
)
from .linalg import (
    DensityMatrix,
    PureState,
    maximally_entangled,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    tensor,
    trace_norm,
)
from .optimize import (
    Certificate,
    OptimizerConfig,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    partial_transpose,
    project_ppt,
    ree_dual_certificate,
    ree_ppt_lower,
    seesaw_diamond_lower,
    seesaw_objective,
    trace_dist_to_ppt,
)

__version__ = "0.1.0"

# the public names imported above; the imports also bind the submodules, which are not API
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
