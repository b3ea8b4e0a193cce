"""Binomial proportion confidence bounds.

The uncertainty-wrapper framework turns the empirical error rate observed in
each decision-tree leaf into a *dependable* uncertainty estimate: an upper
confidence bound on the true misclassification probability of the wrapped
model for inputs falling into that leaf.  The paper uses one-sided
Clopper-Pearson bounds at a confidence level of 0.999; this module provides
that bound plus the common alternatives (Wilson, Jeffreys, Hoeffding) so
their tightness can be compared in ablation benchmarks.

All functions accept scalar or array-like ``successes`` and broadcast with
``trials`` following numpy rules, and all return plain ``float`` for scalar
input and ``numpy.ndarray`` otherwise.

The quantiles come from ``scipy.special`` (``betaincinv``, ``ndtri``), imported
on first use: they are the kernels behind ``scipy.stats.beta.ppf`` and
``norm.ppf``, bitwise equal to them, and importing ``scipy.stats`` would cost
every ``import repro`` most of a second.

Terminology: in this module a "success" is an *observed failure of the
wrapped model* -- the event whose probability the wrapper bounds.  The bound
returned by the ``*_upper`` functions therefore reads as "with probability at
least ``confidence``, the true failure probability does not exceed this
value".
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "clopper_pearson_upper",
    "clopper_pearson_lower",
    "clopper_pearson_interval",
    "wilson_upper",
    "jeffreys_upper",
    "hoeffding_upper",
    "required_samples_for_bound",
]


def _validate(successes, trials, confidence: float):
    """Broadcast and validate inputs shared by all bound functions."""
    if not 0.0 < confidence < 1.0:
        raise ValidationError(
            f"confidence must lie strictly between 0 and 1, got {confidence!r}"
        )
    k = np.asarray(successes, dtype=float)
    n = np.asarray(trials, dtype=float)
    if np.any(n <= 0):
        raise ValidationError("trials must be positive")
    if np.any(k < 0):
        raise ValidationError("successes must be non-negative")
    if np.any(k > n):
        raise ValidationError("successes cannot exceed trials")
    return k, n


def _as_input_shape(value: np.ndarray, *inputs) -> float | np.ndarray:
    """Return a scalar if every input was scalar, else the array."""
    if all(np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def clopper_pearson_upper(successes, trials, confidence: float = 0.999):
    """One-sided Clopper-Pearson upper bound on a binomial proportion.

    This is the exact (conservative) bound used by the uncertainty wrapper
    to derive per-leaf uncertainty guarantees.  For ``k`` observed failures
    in ``n`` samples the upper bound is the ``confidence`` quantile of the
    ``Beta(k + 1, n - k)`` distribution; for ``k == n`` the bound is 1.

    Parameters
    ----------
    successes:
        Number of observed events (model failures), scalar or array.
    trials:
        Number of observations, scalar or array (broadcasts with
        ``successes``).
    confidence:
        One-sided coverage probability, e.g. ``0.999`` as in the paper.

    Returns
    -------
    float or numpy.ndarray
        Upper bound(s) on the true event probability.
    """
    k, n = _validate(successes, trials, confidence)
    k_b, n_b = np.broadcast_arrays(k, n)
    upper = np.ones_like(k_b, dtype=float)
    open_mask = k_b < n_b
    if np.any(open_mask):
        from scipy.special import betaincinv

        upper[open_mask] = betaincinv(
            k_b[open_mask] + 1.0, n_b[open_mask] - k_b[open_mask], confidence
        )
    return _as_input_shape(upper, successes, trials)


def clopper_pearson_lower(successes, trials, confidence: float = 0.999):
    """One-sided Clopper-Pearson lower bound on a binomial proportion.

    For ``k`` observed events in ``n`` samples the lower bound is the
    ``1 - confidence`` quantile of ``Beta(k, n - k + 1)``; for ``k == 0``
    the bound is 0.
    """
    k, n = _validate(successes, trials, confidence)
    k_b, n_b = np.broadcast_arrays(k, n)
    lower = np.zeros_like(k_b, dtype=float)
    open_mask = k_b > 0
    if np.any(open_mask):
        from scipy.special import betaincinv

        lower[open_mask] = betaincinv(
            k_b[open_mask], n_b[open_mask] - k_b[open_mask] + 1.0, 1.0 - confidence
        )
    return _as_input_shape(lower, successes, trials)


def clopper_pearson_interval(successes, trials, confidence: float = 0.999):
    """Two-sided Clopper-Pearson interval with total coverage ``confidence``.

    The miscoverage ``1 - confidence`` is split evenly between the two
    tails, so each one-sided bound is computed at level
    ``(1 + confidence) / 2``.

    Returns
    -------
    tuple
        ``(lower, upper)`` bounds, each scalar or array.
    """
    side = (1.0 + confidence) / 2.0
    return (
        clopper_pearson_lower(successes, trials, side),
        clopper_pearson_upper(successes, trials, side),
    )


def wilson_upper(successes, trials, confidence: float = 0.999):
    """Wilson score upper bound on a binomial proportion.

    Less conservative than Clopper-Pearson; included for the guarantee-
    tightness ablation.  Uses the one-sided normal quantile
    ``z = Phi^{-1}(confidence)``.
    """
    from scipy.special import ndtri

    k, n = _validate(successes, trials, confidence)
    z = ndtri(confidence)
    p_hat = k / n
    denom = 1.0 + z * z / n
    centre = p_hat + z * z / (2.0 * n)
    margin = z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    upper = np.minimum(1.0, (centre + margin) / denom)
    return _as_input_shape(upper, successes, trials)


def jeffreys_upper(successes, trials, confidence: float = 0.999):
    """Jeffreys (Bayesian, ``Beta(1/2, 1/2)`` prior) upper bound.

    The bound is the ``confidence`` quantile of the posterior
    ``Beta(k + 1/2, n - k + 1/2)``.  By convention the bound is clamped to
    1 when ``k == n`` (the posterior quantile can otherwise be < 1 even
    with no observed non-events).
    """
    from scipy.special import betaincinv

    k, n = _validate(successes, trials, confidence)
    k_b, n_b = np.broadcast_arrays(k, n)
    upper = betaincinv(k_b + 0.5, n_b - k_b + 0.5, confidence)
    upper = np.where(k_b >= n_b, 1.0, upper)
    return _as_input_shape(upper, successes, trials)


def hoeffding_upper(successes, trials, confidence: float = 0.999):
    """Distribution-free Hoeffding upper bound on a binomial proportion.

    ``p_hat + sqrt(log(1 / (1 - confidence)) / (2 n))``, clamped to 1.
    Much looser than the exact bounds but requires no distributional
    machinery; included as the conservative end of the ablation.
    """
    k, n = _validate(successes, trials, confidence)
    margin = np.sqrt(np.log(1.0 / (1.0 - confidence)) / (2.0 * n))
    upper = np.minimum(1.0, k / n + margin)
    return _as_input_shape(upper, successes, trials)


def required_samples_for_bound(
    target_bound: float, confidence: float = 0.999, max_samples: int = 10_000_000
) -> int:
    """Smallest ``n`` such that a zero-failure leaf certifies ``target_bound``.

    The minimum uncertainty an uncertainty wrapper can ever guarantee is the
    Clopper-Pearson upper bound of a leaf with zero observed failures; this
    helper inverts that relationship.  For zero failures the bound is
    ``1 - (1 - confidence)**(1/n)``, so the required sample count has a
    closed form.

    Raises
    ------
    ValidationError
        If ``target_bound`` is not in ``(0, 1)`` or would require more than
        ``max_samples`` samples.
    """
    if not 0.0 < target_bound < 1.0:
        raise ValidationError(
            f"target_bound must lie strictly between 0 and 1, got {target_bound!r}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValidationError(
            f"confidence must lie strictly between 0 and 1, got {confidence!r}"
        )
    n = int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - target_bound)))
    n = max(n, 1)
    if n > max_samples:
        raise ValidationError(
            f"certifying a bound of {target_bound} at confidence {confidence} "
            f"needs {n} samples, exceeding max_samples={max_samples}"
        )
    # Guard against rounding at the boundary: nudge until the bound holds.
    while clopper_pearson_upper(0, n, confidence) > target_bound:
        n += 1
        if n > max_samples:
            raise ValidationError(
                "sample requirement exceeded max_samples during refinement"
            )
    return n


def zero_failure_bound(trials, confidence: float = 0.999):
    """Clopper-Pearson upper bound for a leaf with zero observed failures.

    Convenience wrapper for the quantity highlighted in the paper's Fig. 5:
    the *lowest guaranteeable uncertainty*, reached by leaves that misclassify
    nothing on the calibration data.  Equals
    ``1 - (1 - confidence)**(1 / trials)``.
    """
    k = np.zeros_like(np.asarray(trials, dtype=float))
    return clopper_pearson_upper(k if np.ndim(trials) else 0, trials, confidence)


__all__.append("zero_failure_bound")
