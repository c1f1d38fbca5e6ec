"""Monte Carlo pricing of discretely monitored Asian options on GBM.

The package namespace is the pricing surface: spectral synthesis of Brownian
paths (``klcore``), the GBM model and samplers (``process``), and the
baseline, nested and sub-sampled estimators with the closed-form geometric
oracle (``pricing``).  Importing it loads numpy and no scipy.  The
bound-verification probes (``klpricer.analysis``) and the statevector
simulator of the amplitude encodings (``klpricer.qsim``) are submodules,
loaded on demand.
"""

from .klcore import (
    WienerCoefficients,
    truncation_index_bm,
    wiener_eval,
    wiener_eval_horner,
)
from .process import (
    GbmParams,
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
    geometric_asian_closed_form,
    price_baseline,
    price_kl_nested,
    price_subsample,
)

__version__ = "0.1.0"
