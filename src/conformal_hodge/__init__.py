"""Spectral calculus for conformal vector fields on flat planar domains."""

from .series import (
    BivariateField,
    HolomorphicSeries,
    TruncationWarning,
    cr_residual,
    div_curl,
    inner_product,
    norm,
    wirtinger,
)
from .disk import (
    DecompositionResult,
    MultiplierPair,
    adjoint_dz_disk,
    conformal_decompose,
    grad_bar,
    helmholtz_decompose,
    poisson_disk,
    project_con_bergman,
    project_con_gram_oracle,
    project_con_rule,
    projection_property_check,
    sgrad_bar,
    symplectic_decompose,
)
from .mapping import (
    ConformalMap,
    adjoint_dz_mapped,
    map_inner_product,
    project_con_mapped,
)
from .annulus import (
    AnnulusClassification,
    LaurentField,
    annulus_classify,
    poisson_annulus,
)
from .torus import TorusField, torus_project_con
from .forms import (
    OneForm,
    TwoForm,
    ZeroForm,
    flat_map,
    hodge_membership,
    sharp_map,
)
from .catalog import hodge_catalog
from .dynamics import (
    GeodesicState,
    PotentialSpec,
    WaveState,
    first_integrals,
    geodesic_integrate,
    geodesic_rhs,
    stationary_residual,
    stationary_solve,
    wave_integrate,
    wave_mode_solution,
)
from .quadrature import QuadratureSpec

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
