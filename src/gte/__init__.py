"""Gaussian tensor ensembles toolkit.

Samplers for Gaussian orthogonal, unitary, and symplectic tensor ensembles,
compact-group actions on symmetry-classed cubic tensors, trace invariants
over edge-colored multigraphs, and a statistical verification harness.
"""

__version__ = "0.1.0"

#: Version of the JSON wire formats (tensors, matrices, graphs, reports).
FORMAT_VERSION = "1"

from .tensor import (  # noqa: F401
    CanonicalTensor,
    ClassViolationError,
    canonicalize,
    densify,
    flatten_isometry,
    frobenius_norm_sq,
    identity_tensor,
    unflatten_isometry,
)
from .groups import (  # noqa: F401
    GroupElement,
    act,
    act_dense,
    flavor_for_class,
    givens_rotation,
    haar_sample,
    theta_derivative,
)
from .invariants import (  # noqa: F401
    TraceGraph,
    bouquet_graph,
    enumerate_rank2,
    evaluate,
    melon_graph,
)
from .ensembles import (  # noqa: F401
    EnsembleSpec,
    expected_frobenius_sq,
    log_density_unnormalized,
    sample,
    sample_batch,
)
from .harness import (  # noqa: F401
    VerificationReport,
    derivative_identity_test,
    gaussianity_independence_test,
    invariance_test,
    isotropy_test,
    report_to_dict,
)
