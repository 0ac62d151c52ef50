"""Computational toolkit for finite groupoid Cartan pairs.

Exact-phase 2-cocycles, Pontryagin duality for finite abelian group
bundles, Weyl groupoids and their twist cocycles, semidirect-product
models, the reconstruction pipeline, and numerical twisted convolution
algebras.
"""

from .algebra import (
    TwistedAlgebra,
    commutant_check,
    compare_algebras,
    expectation_checks,
    reduced_norm,
    regular_representation,
    total_representation,
    wedderburn_blocks,
)
from .cocycle import (
    TwoCocycle,
    check_cocycle,
    check_symmetric_on,
    is_maximal_symmetric_abelian,
)
from .dual import (
    Character,
    CharacterBundle,
    GroupBundle,
    bundle_from_subgroupoid,
    dual_bundle,
)
from .errors import WeylkitError
from .groupoid import (
    FiniteGroupoid,
    Grading,
    Subgroupoid,
    build_groupoid,
    kernel_of_grading,
    quotient_by_bundle,
    subgroupoid_properties,
    validate_groupoid,
)
from .io import load_groupoid, parse_groupoid_data, save_groupoid
from .phases import Phase
from .reconstruct import (
    ActionPackage,
    ThetaDatum,
    build_boxtimes,
    check_imm_centralizing_action,
    derive_weyl_actions,
    diamond_action,
    quotient_HT,
    reconstruction_iso,
    verify_action_package,
    verify_reconstruction_hypotheses,
    verify_theta,
)
from .semidirect import (
    SemidirectSpec,
    build_semidirect,
    gen_rotation,
    semidirect_weyl_action,
    verify_untwisting,
)
from .weyl import (
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    check_immediately_centralizing,
    conditional_expectation,
    weyl_action,
    weyl_twist_cocycle,
)

__version__ = "0.1.0"
