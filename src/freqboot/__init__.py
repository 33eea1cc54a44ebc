"""Frequency-domain resampling for gridded spatial data.

Periodogram-based spectral mean statistics, spatial block subsampling
variance/bias estimators, the frequency-domain wild bootstrap, its
variance-corrected hybrid, field simulators, and a Monte Carlo
experiment runner.
"""

from .bootstrap import (BootstrapDraws, FieldResampler,
                        bootstrap_distribution, fdwb_variance)
from .density import (SpectralDensityEstimate, default_bandwidth,
                      kernel_density_estimate)
from .errors import ConfigError, FreqbootError, NumericalError
from .infer import (ConfidenceInterval, IsotropyTestResult,
                    calibrate_isotropy, confidence_interval, isotropy_test,
                    resampled_interval, sample_variogram)
from .lattice import (FrequencyGrid, LatticeField, Periodogram,
                      build_frequency_grid, load_field_binary,
                      load_field_csv, periodogram, save_field_binary,
                      save_field_csv)
from .spectral import (PsiFunction, SpectralMeanValue, psi_cos_lag,
                       psi_from_name, psi_isotropy_contrast, psi_spectral_cdf,
                       spectral_mean)
from .subsample import (BlockSpec, SubsampleEnsemble, VarianceEstimates,
                        bias_estimate, block_variogram,
                        block_variogram_contrast, default_block_candidates,
                        select_block_size_min_volatility,
                        subsample_edf, subsample_ensemble,
                        variance_estimates)
from .simulate import (MaternSpectral, SeparableARMA, SphericalAniso,
                       TransformedGaussian, WhiteNoise, anisotropy_matrix,
                       matern_model, model_autocovariance,
                       model_spectral_density, simulate_exp_cholesky,
                       simulate_gaussian, simulate_process,
                       simulate_separable, simulate_transformed)

__version__ = "0.1.0"
