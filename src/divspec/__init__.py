"""Diversity spectra of spatial multipath fading over planar apertures.

Compute the eigenvalue spectrum of the spatial autocorrelation operator of
a fading field restricted to a curve, region, line set, or discrete array
in the plane, for an arbitrary power azimuth spectrum, together with
certified truncation error bounds and the resulting diversity measure.
"""

from .specfun import (
    bessel_abs_tail_bound,
    series_order,
    truncation_order,
)
from .pas import (
    DopplerSpec,
    IsotropicPas,
    PasModel,
    TabulatedPas,
    UniformPas,
    VonMisesPas,
    doppler_spectrum,
    time_acf,
    wrap_angle,
)
from .aperture import (
    ArcPiece,
    Circle,
    DiscreteArray,
    Disk,
    LinePiece,
    ParallelLines,
    PiecewiseCurve,
    Rectangle,
    Segment,
    UnsupportedApertureError,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)
from .operators import (
    TruncatedOperator,
    build_truncated_operator,
    gram_matrix,
    rho_n_kernel,
)
from .spectrum import (
    BoundTooLooseError,
    DiversitySpectrum,
    ExcessiveClampError,
    OracleConvergenceError,
    discrete_correlation,
    discrete_diversity,
    mimo_slope,
    nystrom_oracle,
    omega_corrected,
    omega_from_traces,
    solve_spectrum,
)

__version__ = "0.1.0"
