"""Exact generating series of motivic classes for Quot schemes and
Nakajima quiver varieties, verified against point counts over
small finite fields.

All arithmetic is exact: classes are integer Laurent polynomials in the
Lefschetz class L, series are truncated at an explicit order, and quiver
partition sums run over integer Laurent series in q known to a precision
that is derived from the inputs and large enough to make them exact.
"""

from .rings import (ExactnessError, LaurentPoly, QSeries, affine_class,
                    projective_class)
from .series import TruncatedSeries, geometric_series
from .plethystic import (exp_pleth, exp_pleth_product, log_pleth,
                         power_structure, symmetric_power, verify_power_axioms)
from .quiver import (Quiver, euler_form, nakajima_dim, nakajima_motive_series,
                     nakajima_partition_sum, nilpotent_motive_series,
                     partitions_of, q_pochhammer, verify_heine)
from .quot import (UnsupportedDimensionError, jordan_product_series,
                   nakajima_framed_series, punctual_quot_series, quot_series,
                   verify_class1_closed, verify_duality, verify_product_vs_exp)
from .specialize import point_count_series, verify_zeta_product, zeta_series
from .oracle import (BudgetError, active_backend, gl_order, orbit_count,
                     raw_stable_count)
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CheckReport", "ExactnessError", "LaurentPoly", "QSeries",
    "Quiver", "TruncatedSeries", "UnsupportedDimensionError", "active_backend",
    "affine_class", "euler_form", "exp_pleth", "exp_pleth_product",
    "geometric_series", "gl_order", "jordan_product_series", "log_pleth",
    "nakajima_dim", "nakajima_framed_series", "nakajima_motive_series",
    "nakajima_partition_sum", "nilpotent_motive_series", "orbit_count",
    "partitions_of", "point_count_series", "power_structure",
    "projective_class", "punctual_quot_series", "q_pochhammer", "quot_series",
    "raw_stable_count", "symmetric_power", "verify_class1_closed",
    "verify_duality", "verify_heine", "verify_power_axioms",
    "verify_product_vs_exp", "verify_zeta_product", "zeta_series",
]
