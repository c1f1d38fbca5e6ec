"""Monte Carlo pricing of discretely monitored Asian options on GBM.

Spectral synthesis of Brownian paths, nested and sub-sampled estimators,
closed-form geometric oracle, bound-verification probes, and a small
statevector simulator of the amplitude encodings.
"""

from .klcore import (
    WienerCoefficients,
    kl_eigenvalue,
    tail_variance_bound,
    truncation_index_bm,
    wiener_eval,
    wiener_eval_horner,
)
from .process import (
    GbmParams,
    GmaxBound,
    TimeGrid,
    g_max_bound,
    gbm_from_bm,
    rejection_sample_times,
    sample_coefficients,
    stream,
)
from .pricing import (
    AsianPayoffSpec,
    Estimate,
    asian_payoff,
    geometric_asian_closed_form,
    price_baseline,
    price_geometric_mc,
    price_kl_nested,
    price_subsample,
)
from .analysis import (
    BoundReport,
    convergence_study,
    smoothness_probe,
    subsample_error_probe,
    truncation_error_sweep,
    verify_mapped_bound,
    write_report_csv,
    write_report_json,
)
from .qsim import (
    FixedPointCodec,
    RegisterLayout,
    StateVector,
    attach_value_rotation,
    build_quantized_subsample_state,
    build_semidigital_state,
    exact_success_probability,
    mle_amplitude_estimate,
    prepare_gaussian_register,
)

__version__ = "0.1.0"
