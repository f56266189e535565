"""polywalk: exact symbolic engine for polynomial walks on integer lattices.

Layers, bottom up: `poly` (exact sparse multivariate polynomials), `reals`
(rationals plus named irrational constants), `walks` (polynomial walks and
their algebra), `fleeing` (hyperplane-fleeing walk construction),
`generators` (the concrete walk families), `kernel` (orbit points, torus
phases and residues by exact differences), `lab` (set models, searches,
experiments), `ergodic` (torus systems and polynomial-orbit averages),
`cli` (command-line front end).
"""

from .poly import (
    IntegralityCertificate,
    MPoly,
    PolySyntaxError,
    PolyVector,
    UnknownIdentifierError,
    poly_parse,
    poly_parse_auto,
)
from .reals import Real, parse_real
from .walks import (
    Walk,
    identity_walk,
    preserves,
    walk_scaling_certificate,
)
from .fleeing import (
    AffineFunctional,
    DepthExhausted,
    FleeingCertificate,
    affine_annihilator,
    construct_fleeing_walk,
    is_fleeing,
)
from .generators import (
    NotUnipotent,
    adjoint_action_matrix,
    bogolubov_walk,
    signature_form_walks,
    unipotent_walk,
    xy_minus_P_walks,
)
from .lab import (
    BOGOLUBOV,
    COROLLARIES,
    MAGYAR,
    BohrSet,
    Corollary,
    ExperimentReport,
    SearchResult,
    Status,
    WindowSet,
    corollary_experiment,
    twisted_search,
    weyl_sum_rational,
    weyl_sums,
)
from .ergodic import (
    BoxIndicator,
    CharacterInfo,
    TorusSystem,
    TrigPoly,
    choose_k,
    classify_characters,
    correlation_average,
    empirical_average,
    q_p_closed_form,
    q_p_multipliers,
)

__version__ = "0.1.0"
