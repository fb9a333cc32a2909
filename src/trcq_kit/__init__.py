"""Trapezoidal-rule convolution quadrature (TRCQ) toolkit.

Weight generation for Laplace-domain symbols, discrete causal convolution
engines, evaluation of the fully explicit a-priori error bound with its
complete constant chain, and numerical verification of every inequality the
error analysis rests on.
"""

__version__ = "0.1.0"

from .bounds import (
    SmoothCausalFunction,
    TheoremParams,
    apply_Pm,
    bound_rhs,
    const_chain,
    const_Cm1,
    const_Cmu1,
    derivative_shift,
    derive_params,
    theta1,
    theta2,
    theta3,
)
from .convolution import (
    CausalSignal,
    Grid,
    convolve_fft,
    convolve_naive,
    error_vs_exact,
    sample,
)
from .functions import exact_solution, monomial, parse_g, poly_exp, zero
from .kernels import causal_convolve
from .quadrature import adaptive_simpson, integrate_segmented, integrate_semi_infinite
from .report import VerificationReport, combine_reports, pointwise_report
from .symbols import (
    CFModel,
    Symbol,
    builtin_zoo,
    from_spec,
    make_decay,
    make_delay,
    make_power,
    make_resolvent,
    symbol_product,
    tr_symbol,
    validate_growth,
    value_norm,
)
from .trmap import (
    D_eval,
    E_m_eval,
    delta_char,
    delta_power_diff,
    q_ratio,
    q_taylor_coeffs,
    s_kappa,
    sample_cplus,
    solve_c0,
)
from .verify import (
    check_hyperbolic,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma42,
    check_prop32,
    check_prop34a,
    check_prop41,
)
from .weights import (
    WeightTable,
    compare_weight_tables,
    cq_weights_closed,
    cq_weights_fft,
    default_fft_size,
)

__all__ = [
    "__version__",
    # transform map and series machinery
    "delta_char",
    "s_kappa",
    "q_taylor_coeffs",
    "q_ratio",
    "delta_power_diff",
    "D_eval",
    "E_m_eval",
    "solve_c0",
    "sample_cplus",
    # symbols
    "CFModel",
    "Symbol",
    "value_norm",
    "make_power",
    "make_delay",
    "make_decay",
    "make_resolvent",
    "symbol_product",
    "tr_symbol",
    "validate_growth",
    "from_spec",
    "builtin_zoo",
    # weights
    "WeightTable",
    "cq_weights_fft",
    "cq_weights_closed",
    "compare_weight_tables",
    "default_fft_size",
    # convolution
    "Grid",
    "CausalSignal",
    "sample",
    "convolve_naive",
    "convolve_fft",
    "error_vs_exact",
    "causal_convolve",
    # quadrature
    "adaptive_simpson",
    "integrate_segmented",
    "integrate_semi_infinite",
    # bound machinery
    "SmoothCausalFunction",
    "derivative_shift",
    "apply_Pm",
    "TheoremParams",
    "derive_params",
    "theta1",
    "theta2",
    "theta3",
    "const_Cm1",
    "const_Cmu1",
    "const_chain",
    "bound_rhs",
    # shipped inputs
    "poly_exp",
    "monomial",
    "zero",
    "parse_g",
    "exact_solution",
    # verification
    "VerificationReport",
    "pointwise_report",
    "combine_reports",
    "check_hyperbolic",
    "check_lemma31",
    "check_prop32",
    "check_lemma32",
    "check_lemma42",
    "check_lemma33",
    "check_prop34a",
    "check_prop41",
]
