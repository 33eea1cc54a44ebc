"""The FDWB and HFDB replicates against their exact law (``exact_law``)."""

import numpy as np
import pytest
import scipy.stats as st

import freqboot as fb
from freqboot import NumericalError, SpectralDensityEstimate
from freqboot import rng as rngmod
from freqboot.bootstrap import _hybrid_rescale, fdwb_draws, fdwb_variance
from freqboot.density import kernel_density_estimate
from freqboot.spectral import PsiFunction

from exact_law import TWO_PI, fdwb_law, hybrid_law

# replicates per KS comparison, and the bound on its p-value; both were
# fixed before the comparisons were first run
DRAWS = 20000
KS_P = 1e-3

_UNEVEN = PsiFunction("uneven", lambda w1, w2: np.cos(w1) + 0.3 * np.sin(w2))


def _field(n1, n2, seed):
    return fb.simulate_gaussian(fb.SphericalAniso(sigma2=1.0, range_=5.0),
                                n1, n2, rngmod.stream(seed, rngmod.TAG_FIELD, 0))


def _kde(n1, n2, seed):
    return kernel_density_estimate(fb.periodogram(_field(n1, n2, seed)))


def _asymmetric(n1, n2, seed):
    # not mirror symmetric, so the odd part of a psi that is not even does
    # not cancel in the pairs
    return SpectralDensityEstimate(
        grid=fb.build_frequency_grid(n1, n2), bandwidth=(1.0, 1.0),
        values=np.random.default_rng(seed).uniform(0.1, 2.0, (n1, n2)))


# both grid parities on each axis; an even psi on mirror-symmetric
# estimates and a psi that is not even on an asymmetric density
CASES = {
    "50x50/iso": (lambda: _kde(50, 50, 3),
                  fb.psi_isotropy_contrast((1, 0), (0, 1))),
    "49x47/cos": (lambda: _kde(49, 47, 4), fb.psi_cos_lag((1, 0))),
    "50x47/uneven": (lambda: _asymmetric(50, 47, 5), _UNEVEN),
    "47x50/uneven": (lambda: _asymmetric(47, 50, 6), _UNEVEN),
}


class TestExactLaw:
    @pytest.mark.parametrize("case", list(CASES))
    def test_fdwb_draws_follow_the_exact_law(self, case):
        density, psi = CASES[case]
        fhat = density()
        law = fdwb_law(fhat, psi)
        draws = fdwb_draws(fhat, psi, DRAWS, master_seed=41)
        assert st.kstest(draws, law.cdf).pvalue > KS_P
        if not case.endswith("uneven"):
            # Var* is the law's variance on a mirror-symmetric estimate
            assert law.variance == pytest.approx(fdwb_variance(fhat, psi),
                                                 rel=1e-12)

    def test_hfdb_bias_draws_follow_the_scaled_and_shifted_law(self):
        res = fb.FieldResampler(_field(24, 24, 7), fb.psi_cos_lag((1, 0)),
                                DRAWS, master_seed=42)
        spec = fb.BlockSpec(5, 5)
        draws = res.draws("hfdb_bias", spec)
        assert draws.sigma2_floored > 0.0 and draws.bias_sub != 0.0
        law = hybrid_law(fdwb_law(res.fhat, res.psi), draws.var_star,
                         draws.sigma2_floored, draws.bias_sub)
        assert st.kstest(draws.values, law.cdf).pvalue > KS_P

    def test_truncation_error_falls_as_nodes_double_and_step_halves(self):
        # a 16 x 16 estimate of a peaked density: 129 weights, the largest
        # a_j 0.44 sd, so phi decays slowly and both errors show
        law = fdwb_law(_kde(16, 16, 4), fb.psi_cos_lag((1, 0)))
        sd = np.sqrt(law.variance)
        x = np.linspace(-4.0 * sd, 4.0 * sd, 161)
        exact = law.cdf(x, nodes=800, step=TWO_PI / (80.0 * sd))

        def error(**kw):
            return np.max(np.abs(law.cdf(x, **kw) - exact))

        # truncation: more nodes at the default step
        errors = [error(nodes=k) for k in (6, 12, 24, 48, 96)]
        assert all(b < a / 5.0 for a, b in zip(errors, errors[1:])), errors
        # aliasing: nodes doubled and step halved, so t_K stays put
        errors = [error(nodes=k, step=TWO_PI / (c * sd))
                  for k, c in ((24, 5.0), (48, 10.0), (96, 20.0))]
        assert all(b < a / 100.0 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] < 1e-13

    @pytest.mark.parametrize("var_star", [0.0, -1.0])
    def test_degenerate_var_star_raises_the_rescale_error(self, var_star):
        law = fdwb_law(_kde(16, 16, 4), fb.psi_cos_lag((1, 0)))
        with pytest.raises(NumericalError) as want:
            _hybrid_rescale(np.ones(3), var_star, 0.5)
        with pytest.raises(NumericalError) as got:
            hybrid_law(law, var_star, 0.5)
        assert str(got.value) == str(want.value)
