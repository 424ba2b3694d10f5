"""isofib: isotropy-splitting fibrations of compact homogeneous spaces.

Enumerates fibrations G/K1 -> G/K arising from two-factor groupings of an
equal-rank (or, in one family, rank-deficient) isotropy group, via exact
root-system combinatorics, and verifies metric statements about them
(constant-length Killing fields, constant-displacement isometries,
fixed-point sets of isotropy elements) numerically on concrete matrix
models.
"""

__version__ = "0.1.0"

# Default tolerances of the numeric checks, which `homspace` uses and
# `cli.DEFAULT_TOLERANCES` echoes; here, reading them loads no numpy.
COSET_TOL = 1e-8
CERT_RESIDUAL_TOL = 1e-9
CONSTANT_SPREAD_TOL = 1e-4
GAP_TOL = 1e-3

from .rootsys import RootSystem, SimpleType, build_root_system  # noqa: F401
from .dynkin import (  # noqa: F401
    BdSCase,
    CatalogConfig,
    FibrationRecord,
    bds_enumerate,
    catalog,
    splittings,
)
