"""scripts/loo_calibration.py: the closed-form leave-one-out residuals of a fit."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from moboga.surrogate import GpHyperParams, _se, _sq_diffs, gp_fit

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "loo_calibration.py"
_spec = importlib.util.spec_from_file_location("loo_calibration", SCRIPT)
loo_calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loo_calibration)


@pytest.mark.parametrize("n, d, noise", [(2, 1, 1e-4), (12, 2, 1e-6), (25, 3, 1e-3)])
def test_closed_form_equals_n_explicit_leave_one_out_fits(n, d, noise):
    rng = np.random.default_rng(n)
    X = rng.random((n, d))
    y = np.sin(4.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
    hyper = GpHyperParams(np.full(d, 0.3), 1.5, noise)
    y_std = (y - y.mean()) / y.std()  # the full data's standardization, kept for every fit
    K = _se(_sq_diffs(X, X), hyper.length_scales, hyper.signal_variance)
    K += noise * np.eye(n)
    explicit = np.empty(n)
    for i in range(n):
        rest = np.arange(n) != i
        k = K[rest, i]
        mean = k @ np.linalg.solve(K[np.ix_(rest, rest)], y_std[rest])
        var = K[i, i] - k @ np.linalg.solve(K[np.ix_(rest, rest)], k)
        explicit[i] = (y_std[i] - mean) / np.sqrt(var)
    z = loo_calibration.loo_z(gp_fit(X, y, hyper))
    np.testing.assert_allclose(z, explicit, rtol=1e-7, atol=1e-9)


def test_every_fit_of_a_study_is_captured_in_call_order():
    fits = loo_calibration.capture("binh-korn")
    # 50 proposals x 2 objectives; searches at every size to 20, then about 10% apart
    assert len(fits) == 100
    assert [j for j, _, _ in fits] == [0, 1] * 50
    assert [kind for _, kind, _ in fits[:4]] == ["cold search"] * 2 + ["warm search"] * 2
    assert {kind for _, kind, _ in fits[26:]} == {"warm search", "kept θ"}
    assert [len(m.alpha) for _, _, m in fits[::2]] == list(range(8, 58))
