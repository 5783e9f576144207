"""Finite group theory on enumerated carriers.

Groups are validated Cayley tables over index carriers, subgroups and
cosets are indicator sets, actions are validated tables, and the classical
existence and counting theorems (Lagrange, orbit-stabilizer, the mod-p
fixed-point congruence, Cauchy, Sylow) are executable procedures whose
intermediate claims are re-verified as they run.
"""

from .carrier import (
    Carrier,
    ElemSet,
    full_set,
    set_of,
    singleton,
)
from .group import (
    Group,
    GroupSpec,
    build,
    check_identities,
    from_cayley_table,
    symmetric_elements,
)
from .subgroup import (
    closure,
    is_subgroup,
    lagrange_check,
    left_coset,
    left_index,
    product_subgroup_checks,
    right_coset,
    right_index,
    set_product,
    subgroup_sample,
    subgroup_set,
)
from .conjnormal import (
    QuotientGroup,
    conjugate_set,
    image_subgroup,
    is_normal,
    normalizer,
    preimage_subgroup,
    quotient_group,
    quotient_morphism_check,
)
from .action import (
    Action,
    conjugation_action,
    conjugation_action_on_subsets,
    fixed_points,
    left_translation_action,
    make_action,
    mod_p_fixed_point_check,
    orbit,
    orbit_stabilizer_check,
    orbit_stabilizer_counts,
    stabilizer,
)
from .cyclic import cyclic, order, phi, phi_theorem_checks, power
from .numutil import padic_val
from .sylow import (
    SylowCertificate,
    TupleCarrier,
    cauchy_element,
    extend_p_subgroup,
    is_sylow,
    product_one_tuples,
    rotation_action,
    sylow_battery,
    sylow_conjugator,
    sylow_count_divides_check,
    sylow_count_mod_p_check,
    sylow_family,
    sylow_subgroup,
)
from .report import Check, Report
from . import errors

__version__ = "0.1.0"
