"""Exact weight-cone computations for Goren-Oort strata of Hilbert modular varieties.

The package has five layers:

* `cone_kernel`: exact rational polyhedral cones (double description,
  images and sums, containment witnesses, membership certificates);
* `splitting`: Frobenius-orbit combinatorics of strata (index tables,
  tilde closure, signs, ramification and Iwahori data);
* `weights`: distinguished weights, generating sets and half-space
  descriptions of the weight cones, reductions, minimal cones, section
  recipes, and the bi-weight variant;
* `verify`: theorem checkers and the exhaustive sweep explorer;
* `cli`: the `strata-cones` command, which streams the report text that
  `check_report` and `explore` keep in a `verify.Report`: `to_json()`
  returns it, and `strata` and `to_dict()` decode it on each access.
"""

from strata_cones.cone_kernel import (
    Cone,
    ConstraintRep,
    GeneratorRep,
    MembershipCertificate,
    cone_complete,
    cone_equal,
    cone_from_constraints,
    cone_from_rays,
    cone_image,
    cone_member,
    cone_sum,
    first_escape,
    full_space,
    normalize_primitive,
)
from strata_cones.verify import check_report, explore

__all__ = [
    "Cone",
    "ConstraintRep",
    "GeneratorRep",
    "MembershipCertificate",
    "cone_complete",
    "cone_equal",
    "cone_from_constraints",
    "cone_from_rays",
    "cone_image",
    "cone_member",
    "cone_sum",
    "first_escape",
    "full_space",
    "normalize_primitive",
    "check_report",
    "explore",
]

__version__ = "0.1.0"
