"""Gaussian-weighted spaces of slice-regular quaternionic power series.

The package provides exact quaternion and imaginary-sphere arithmetic,
right-coefficient power series with certified truncation tails, Gaussian
quadrature on planes and on the whole algebra, the two weighted norm
families built on them, convolution polynomial operators realized as
coefficient multipliers, moduli of smoothness with best-approximation
estimates, reproducing-kernel section fits, and growth (order/type)
diagnostics, plus a CLI wrapping the lot.
"""

from .errors import (
    ConditioningError,
    IntegrandOverflowError,
    NotInSpaceError,
    RefinementError,
    SliceFockError,
    SolverError,
    TruncationError,
)
from .quaternion import (
    DEFAULT_UNIT,
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    mul,
    perpendicular_unit,
    slice_exp,
    slice_unit,
    sphere_grid,
    trig_form,
)
from .series import (
    DEGREE_CAP,
    SliceSeries,
    TAIL_TOL,
    dilate,
    evaluate,
    exp_series,
    from_generator,
    from_quaternions,
    gauss_series,
    log_abs_evaluate,
    monomial,
    random_series,
    read_coefficients,
    representation_formula,
    slice_components,
    slice_evaluator,
    split,
    taylor_truncate,
    write_coefficients,
    zero_series,
)
from .quadrature import (
    QuadratureGrid,
    circle_average,
    integrate_volume,
    refined,
    slice_grid,
    volume_grid,
)
from .spaces import (
    GrowthBoundReport,
    GrowthReport,
    NormReport,
    NormSpec,
    embedding_check,
    growth_bound_check,
    inner_first,
    inner_second,
    norm,
    norm_report,
    order_type,
    sample_ball,
    slice_norm_ratio,
)
from .operators import (
    MultiplierOperator,
    TrigKernel,
    apply,
    fejer_kernel,
    fejer_op,
    jackson_kernel,
    jackson_op,
    jackson_rule_r,
    kernel_eval,
    moment_bound,
    multipliers,
    normalize_jackson,
    rotational_average,
    vdp_op,
)
from .approx import (
    BestApproxResult,
    JacksonReport,
    ModulusQuery,
    VdpReport,
    best_approx_first,
    best_approx_lp,
    best_approx_second,
    finite_difference,
    modulus,
    parseval_norm_sq,
    vdp_constant,
    verify_jackson,
    verify_vdp,
)
from .kernels import SectionFit, fit_with_sections, kernel_section

__version__ = "0.1.0"
