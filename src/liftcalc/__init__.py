"""liftcalc: exact lift calculus on higher-order extension charts.

The package computes vertical, complete, complete-vertical, and horizontal
lifts of scalars, vector fields, one-forms, and tensor fields from a base
chart to its k-th extension chart — exactly, over Gaussian-rational
polynomial coefficients — and turns every algebraic law the calculus is
supposed to satisfy into a checkable, seeded, deterministic report.

Layers, bottom to top:

:mod:`liftcalc.symkernel`
    exact scalars (:class:`GRat`), canonical polynomial expressions
    (:class:`Expr`), parsing/formatting, and the fraction-free rank proof
    of the determined lifts;
:mod:`liftcalc.charts`
    chart descriptions (:class:`ChartSpec`) naming the coordinates of the
    k-th extension of an m-dimensional base, with or without a time line;
:mod:`liftcalc.fields`
    coordinate fields over a chart: scalars, vectors, one-forms,
    (1,1)- and (0,2)-tensors, connections;
:mod:`liftcalc.lifts`
    the lift operations themselves — closed forms where they exist and a
    certified defining-equation solver everywhere;
:mod:`liftcalc.structures`
    diagonal complex structures, their lifts, metric compatibility, and
    fundamental two-forms;
:mod:`liftcalc.verify`
    the identity suites and defining-vs-closed comparisons;
:mod:`liftcalc.cli`
    the ``liftcalc`` command-line front end.
"""

from .charts import ChartError, ChartSpec
from .fields import (
    Bilinear,
    ConnectionCoeffs,
    EndoField,
    FieldError,
    OneForm,
    ScalarField,
    VectorField,
    format_bilinear,
    format_endo,
    format_oneform,
    format_vector,
    lie_bracket,
)
from .lifts import (
    AdaptedFrame,
    LiftError,
    SolveCertificate,
    adapted_frame,
    basis_lift_rows,
    clear_lift_cache,
    fn_complete,
    fn_complete_vertical,
    fn_horizontal,
    fn_vertical,
    of_complete_closed,
    of_cv_closed,
    of_defining_residuals,
    of_horizontal,
    of_lift_solve,
    of_lift_solve_certified,
    of_vertical_closed,
    t02_defining_residuals,
    t02_lift_solve,
    t02_lift_solve_certified,
    t11_defining_residuals,
    t11_lift_solve,
    t11_lift_solve_certified,
    vf_complete_closed,
    vf_cv_closed,
    vf_defining_residuals,
    vf_horizontal,
    vf_lift_solve,
    vf_lift_solve_certified,
    vf_vertical_closed,
)
from .structures import (
    HermitianPackage,
    StructureError,
    build_Jk,
    build_Jk_star,
    fundamental_bilinear,
    hermitian_check,
    kaehler_closed,
    kaehler_form,
    lift_J0,
    star_apply,
)
from .symkernel import (
    CoordId,
    Expr,
    GRat,
    Kind,
    ParseError,
    SymKernelError,
    TIME,
    binomial,
    format_expr,
    parse,
)
from .verify import (
    CheckReport,
    Clause,
    ClauseOutcome,
    CompareCase,
    CompareReport,
    COMPARISONS,
    DEFAULT_SAMPLES,
    FieldGen,
    SUITES,
    VerifyError,
    compare_proposition,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame", "Bilinear", "ChartError", "ChartSpec",
    "CheckReport", "Clause", "ClauseOutcome", "CompareCase", "CompareReport",
    "COMPARISONS", "ConnectionCoeffs", "CoordId", "DEFAULT_SAMPLES",
    "EndoField", "Expr", "FieldError", "FieldGen", "GRat", "HermitianPackage",
    "Kind", "LiftError", "OneForm", "ParseError", "ScalarField",
    "SolveCertificate", "StructureError", "SUITES", "SymKernelError", "TIME",
    "VectorField", "VerifyError", "adapted_frame", "basis_lift_rows",
    "binomial", "build_Jk", "build_Jk_star",
    "clear_lift_cache", "compare_proposition", "fn_complete",
    "fn_complete_vertical", "fn_horizontal", "fn_vertical", "format_bilinear",
    "format_endo", "format_expr", "format_oneform", "format_vector",
    "fundamental_bilinear", "hermitian_check", "kaehler_closed",
    "kaehler_form", "lie_bracket", "lift_J0", "of_complete_closed",
    "of_cv_closed", "of_defining_residuals", "of_horizontal", "of_lift_solve",
    "of_lift_solve_certified", "of_vertical_closed", "parse", "run_suite",
    "star_apply", "t02_defining_residuals", "t02_lift_solve",
    "t02_lift_solve_certified", "t11_defining_residuals", "t11_lift_solve",
    "t11_lift_solve_certified", "vf_complete_closed", "vf_cv_closed",
    "vf_defining_residuals", "vf_horizontal", "vf_lift_solve",
    "vf_lift_solve_certified", "vf_vertical_closed",
]
