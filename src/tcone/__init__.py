"""Tight closure in cones over smooth plane cubics.

Decides tight-closure (= plus-closure) membership and computes full tight
closures of irrelevant-primary homogeneous ideals in R = K[x,y,z]/(F) for
a smooth cubic F over a small finite field, by decomposing the syzygy
sheaf of the generators and testing obstruction-class components on its
negative-degree summands.
"""

from .algebra import UndecidedError
from .bundle import (Decomposition, EndAlgebra, ForcingData, Summand,
                     SyzygyBundle, cohomology_dims, component_class_vanishes,
                     decompose_bundle, end_algebra, forcing_data,
                     syzygy_bundle)
from .closure import (ClosureCertificate, ClosureIdeal, FrobeniusResult,
                      SlopeReport, frobenius_member, slope_and_threshold,
                      tight_closure_ideal, tight_closure_member)
from .field import (Field, FieldElem, FieldError, embed, find_irreducible,
                    make_field)
from .gradedmod import (GradedMap, ModuleHom, PresentedModule, TwistedFree,
                        free_module, hom_space, image_presentation,
                        syzygy_of_map)
from .polyring import (CubicCurve, IdealData, Polynomial,
                       PolynomialSyntaxError, buchberger, format_polynomial,
                       hasse_invariant_of, ideal_membership,
                       is_irrelevant_primary, is_smooth_cubic, normal_form,
                       parse_polynomial)

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElem", "FieldError", "make_field", "find_irreducible",
    "embed",
    "Polynomial", "PolynomialSyntaxError", "parse_polynomial",
    "format_polynomial", "buchberger", "normal_form", "ideal_membership",
    "is_smooth_cubic", "is_irrelevant_primary", "hasse_invariant_of",
    "CubicCurve", "IdealData",
    "TwistedFree", "GradedMap", "PresentedModule", "ModuleHom",
    "free_module", "syzygy_of_map", "hom_space", "image_presentation",
    "SyzygyBundle", "EndAlgebra", "Summand", "ForcingData", "Decomposition",
    "syzygy_bundle", "end_algebra", "decompose_bundle", "forcing_data",
    "component_class_vanishes", "cohomology_dims",
    "ClosureCertificate", "SlopeReport", "FrobeniusResult", "ClosureIdeal",
    "tight_closure_member", "frobenius_member", "tight_closure_ideal",
    "slope_and_threshold",
    "UndecidedError",
]
