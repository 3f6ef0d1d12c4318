#!/usr/bin/env python3
"""Leave-one-out calibration of every GP fit of the seed-7 verify runs.

Usage, from the repository root::

    python3 scripts/loo_calibration.py

For binh-korn and constr-ex, runs ``engine.run`` with the study's ``moboga
verify`` config (``cli._STUDIES``: seed 7, 8 + 50 evaluations, the stop rule
off), with ``moboga.engine.gp_fit`` wrapped to keep every fitted model. For
each model and each training point i, the closed-form leave-one-out residual
(Rasmussen & Williams, GPML §5.4.2, eq. 5.12) is

    z_i = alpha_i / sqrt([K^-1]_ii),

the error of the prediction of y_i from the other points over its predictive
standard deviation, at the model's hyperparameters and on its standardized
targets. ``[K^-1]_ii`` is the column sum of squares of the model's cached
``chol_inv``, so no fit is repeated. For a calibrated Gaussian the median
|z| is 0.674 and 95.4% of |z| lie within 2; a median far below 0.674 means
the predictive spread is wider than the errors the model makes.

One CSV row per fit: the study, the objective's index, the archive size, the
kind of fit (``cold search``, ``warm search`` or ``kept θ``, where the
hyperparameters of the last search are kept), the median |z| and the share
of |z| <= 2.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from moboga import engine, get_problem  # noqa: E402
from moboga.cli import _STUDIES  # noqa: E402

STUDIES = ("binh-korn", "constr-ex")


def loo_z(model) -> np.ndarray:
    """z_i = alpha_i / sqrt([K^-1]_ii) of every training point of a fitted model."""
    return model.alpha / np.sqrt((model.chol_inv**2).sum(axis=0))


def capture(name: str) -> list[tuple[int, str, object]]:
    """(objective index, kind, model) of every gp_fit call of one study's run,
    in call order."""
    problem = get_problem(name)
    fits = []
    fit = engine.gp_fit

    def recording(X, y, hyper=None, *, start=None, keep=None):
        model = fit(X, y, hyper, start=start, keep=keep)
        kind = "kept θ" if keep is not None or hyper is not None else (
            "cold search" if start is None else "warm search")
        fits.append((len(fits) % problem.n_objectives, kind, model))
        return model

    engine.gp_fit = recording
    try:
        engine.run(problem, _STUDIES[name][0])
    finally:
        engine.gp_fit = fit
    return fits


def main() -> int:
    print("study,objective,n,kind,median_abs_z,share_within_2")
    for name in STUDIES:
        for j, kind, model in capture(name):
            z = np.abs(loo_z(model))
            print(f"{name},{j},{len(z)},{kind},{np.median(z):.3f},{np.mean(z <= 2.0):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
