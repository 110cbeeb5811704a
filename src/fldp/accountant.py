"""Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism.

Given the noise multiplier z (noise standard deviation over L2 sensitivity)
and the per-step sampling probability q, the accountant evaluates the
per-order Renyi divergence eps(alpha) of one mechanism invocation, composes
additively over steps, and converts the composed curve to an (epsilon,
delta) guarantee by minimizing over orders.

eps(alpha) is log(A_alpha)/(alpha - 1) where A_alpha is the alpha-th moment
of the likelihood ratio between N(0, z^2) and the mixture
(1 - q) N(0, z^2) + q N(1, z^2). A_alpha is evaluated with the stable
log-domain binomial expansion, for the whole order grid at once as array
operations; all arithmetic is float64 in log space and binomial
coefficients go through log-gamma. For q == 1 the mechanism is a plain
Gaussian and eps(alpha) = alpha / (2 z^2).

* Integer orders: the expansion is a finite sum of alpha + 1 terms. The
  terms of every integer order go into one flat array, and each order's
  log A is a log-sum-exp over its own contiguous segment. An order whose
  sum would exceed _MAX_SERIES_TERMS terms raises ArithmeticError.
* Fractional orders: the expansion is two-sided and infinite, with normal
  tail weights, and its terms alternate in sign once the index passes
  alpha. The terms form one (orders, terms) block whose width starts small
  and doubles for the orders that have not yet stopped. An order stops at
  the first index whose terms on both sides are smaller than the ones
  before them and below e^-30, and takes a signed log-sum-exp over exactly
  the terms up to that index. A series still running after
  _MAX_SERIES_TERMS terms raises ArithmeticError.

Each order's value depends only on its own terms, summed in the same order
whatever else is on the grid, so an order's eps is bit for bit the same
on a one-order grid as on any grid.

The RDP -> DP conversion uses the tighter minimization
    eps = rdp(alpha) + log1p(-1/alpha) - log(delta * alpha) / (alpha - 1),
the same bound the reference accountant implementations ship; the classic
rdp(alpha) + log(1/delta)/(alpha - 1) bound is looser by up to ~15% on the
regimes exercised here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy import special

from .errors import ConfigError

# Dense fractional orders below 2, integers to 64, then two high orders.
DEFAULT_ORDERS: tuple[float, ...] = tuple(
    [1.0 + k / 10.0 for k in range(1, 10)] + list(range(2, 65)) + [128.0, 256.0]
)

_MAX_SERIES_TERMS = 100_000
# Fractional-order series terms alternate in sign once the index passes
# alpha, so truncation error is bounded by the first omitted term; e^-30 is
# far below every tolerance used downstream. Terms decay polynomially for
# orders just above 1, which is why the cutoff is absolute, not relative.
_SERIES_LOG_CUTOFF = -30.0
# Width of the first fractional-order block; enough for the paper's regime.
_FIRST_SERIES_WIDTH = 16


def _log_sum_segments(log_terms, signs, starts) -> np.ndarray:
    """log(sum(sign * exp(log_term))) over each segment of the flat arrays.

    Segment k runs from starts[k] to the next start (or the end); signs is
    None for all-positive terms. Each sum is scaled by its largest term,
    whose share is taken out and put back through log1p: log A is often a
    tiny difference between that term and the rest, and summing to 1 + x
    before the log would keep only the absolute precision of x.
    """
    n = log_terms.size
    lengths = np.diff(starts, append=n)
    peak = np.repeat(np.maximum.reduceat(log_terms, starts), lengths)
    at_peak = np.where(log_terms == peak, np.arange(n), n)
    first_peak = np.minimum.reduceat(at_peak, starts)
    scaled = np.exp(log_terms - peak)
    if signs is not None:
        scaled *= signs
    scaled[first_peak] -= 1.0
    excess = np.add.reduceat(scaled, starts)
    if not np.all(excess > -1.0):
        raise ArithmeticError(
            "subsampled-Gaussian series summed to a non-positive value"
        )
    return peak[starts] + np.log1p(excess)


def _log_a_int_orders(q: float, z: float, alphas: np.ndarray) -> np.ndarray:
    """log A_alpha at integer orders: one flat array of every order's terms."""
    if alphas.max() >= _MAX_SERIES_TERMS:
        raise ArithmeticError(
            f"integer order {alphas.max()} needs more than "
            f"{_MAX_SERIES_TERMS} series terms"
        )
    n = alphas.astype(np.int64)
    lengths = n + 1
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    order_n = np.repeat(n, lengths)
    i = np.arange(lengths.sum()) - np.repeat(starts, lengths)
    log_fact = special.gammaln(np.arange(n.max() + 1) + 1.0)
    terms = (
        (log_fact[order_n] - log_fact[i] - log_fact[order_n - i])
        + i * math.log(q)
        + (order_n - i) * math.log1p(-q)
        + (i * i - i) / (2.0 * z * z)
    )
    return _log_sum_segments(terms, None, starts)


def _frac_terms(q: float, z: float, alphas: np.ndarray, i: np.ndarray):
    """Log terms of both sides of the fractional series, (orders, len(i))."""
    alpha = alphas[:, None]
    j = alpha - i
    z0 = z * z * math.log(1.0 / q - 1.0) + 0.5
    log_q, log1mq = math.log(q), math.log1p(-q)
    log_coef = (
        special.gammaln(alpha + 1.0)
        - special.gammaln(i + 1.0)
        - special.gammaln(j + 1.0)
    )
    log_s0 = (
        log_coef + i * log_q + j * log1mq + (i * i - i) / (2.0 * z * z)
        + special.log_ndtr((z0 - i) / z)
    )
    log_s1 = (
        log_coef + j * log_q + i * log1mq + (j * j - j) / (2.0 * z * z)
        + special.log_ndtr((j - z0) / z)
    )
    return log_s0, log_s1


def _log_a_frac_orders(q: float, z: float, alphas: np.ndarray) -> np.ndarray:
    """log A_alpha at fractional orders, each series cut by the stopping rule."""
    log_a = np.empty(alphas.size)
    pending = np.arange(alphas.size)
    log_s0 = log_s1 = np.empty((alphas.size, 0))
    width = 0
    while pending.size:
        if width == _MAX_SERIES_TERMS:
            raise ArithmeticError(
                "subsampled-Gaussian series did not converge "
                f"(q={q}, z={z}, alpha={alphas[pending[0]]})"
            )
        grown = min(max(2 * width, _FIRST_SERIES_WIDTH), _MAX_SERIES_TERMS)
        new0, new1 = _frac_terms(q, z, alphas[pending], np.arange(width, grown))
        log_s0 = np.concatenate((log_s0, new0), axis=1)
        log_s1 = np.concatenate((log_s1, new1), axis=1)
        width = grown
        # Column k + 1 stops the series when both sides fell below column k
        # and under the cutoff; terms 0..k+1 are summed.
        falls = (
            (log_s0[:, 1:] < log_s0[:, :-1])
            & (log_s1[:, 1:] < log_s1[:, :-1])
            & (np.maximum(log_s0[:, 1:], log_s1[:, 1:]) < _SERIES_LOG_CUTOFF)
        )
        done = falls.any(axis=1)
        if done.any():
            count = falls[done].argmax(axis=1) + 2
            keep = np.arange(width) < count[:, None]
            # Interleave the two sides: an order's segment is s0_0, s1_0, s0_1, ...
            log_terms = np.stack((log_s0[done], log_s1[done]), axis=2)[keep].ravel()
            alpha = alphas[pending[done], None]
            negatives = np.maximum(0, np.arange(width) - 1 - np.floor(alpha))
            signs = np.where(negatives % 2 == 1, -1.0, 1.0)[keep].repeat(2)
            starts = 2 * np.concatenate(([0], np.cumsum(count)[:-1]))
            log_a[pending[done]] = _log_sum_segments(log_terms, signs, starts)
            pending = pending[~done]
            log_s0, log_s1 = log_s0[~done], log_s1[~done]
    return log_a


def _order_array(orders) -> np.ndarray:
    """The order grid as an array, after checking that every order is > 1."""
    alphas = np.array(orders, dtype=float)
    if alphas.size == 0:
        raise ConfigError("order grid must be nonempty")
    if not np.all(np.isfinite(alphas)):
        raise ConfigError(f"Renyi orders must be finite, got {list(orders)}")
    if not np.all(alphas > 1):
        raise ConfigError(f"Renyi order must exceed 1, got {alphas.min()}")
    return alphas


def _check_mechanism(
    noise_multiplier: float, sampling_rate: float, orders
) -> np.ndarray:
    """The order grid as an array, after checking z, q and every order."""
    alphas = _order_array(orders)
    if not 0 < sampling_rate <= 1:
        raise ConfigError("sampling_rate must be in (0, 1]")
    if not (math.isfinite(noise_multiplier) and noise_multiplier > 0):
        raise ConfigError(
            f"noise multiplier must be finite and positive, got {noise_multiplier}"
        )
    return alphas


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ConfigError("delta must be in (0, 1)")


@dataclass(frozen=True)
class RdpCurve:
    """Per-order RDP of one invocation plus a composition count."""

    orders: tuple[float, ...]
    eps_per_step: tuple[float, ...]
    steps: int = 1

    def __post_init__(self):
        _order_array(self.orders)
        if len(self.orders) != len(self.eps_per_step):
            raise ConfigError("orders and eps_per_step must align")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")

    def total(self) -> tuple[float, ...]:
        """Composed eps(alpha) over all steps (linear in the step count)."""
        return tuple(self.steps * e for e in self.eps_per_step)


def rdp_sampled_gaussian(
    noise_multiplier: float,
    sampling_rate: float,
    orders: Iterable[float] = DEFAULT_ORDERS,
) -> RdpCurve:
    """RDP curve of a single sampled-Gaussian invocation (steps = 1)."""
    orders = tuple(float(a) for a in orders)
    alphas = _check_mechanism(noise_multiplier, sampling_rate, orders)
    z, q = noise_multiplier, sampling_rate
    if q == 1.0:
        eps = alphas / (2.0 * z**2)
    else:
        log_a = np.empty(alphas.size)
        whole = alphas == np.floor(alphas)
        if whole.any():
            log_a[whole] = _log_a_int_orders(q, z, alphas[whole])
        if not whole.all():
            log_a[~whole] = _log_a_frac_orders(q, z, alphas[~whole])
        eps = np.maximum(0.0, log_a / (alphas - 1.0))
    return RdpCurve(orders, tuple(eps.tolist()), steps=1)


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Compose the mechanism `steps` more times (multiplies the count)."""
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    return replace(curve, steps=curve.steps * steps)


def epsilon_at_delta(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Best (epsilon, order) at the target delta over the curve's grid."""
    _check_delta(delta)
    alphas = np.array(curve.orders, dtype=float)
    total = np.array(curve.total())
    eps = total + np.log1p(-1.0 / alphas) - np.log(delta * alphas) / (alphas - 1.0)
    # An undefined order (nan, say inf * 0 steps) never wins.
    best = int(np.argmin(np.where(np.isnan(eps), np.inf, eps)))
    return float(max(0.0, eps[best])), float(curve.orders[best])


def epsilon_for(
    noise_multiplier: float,
    sampling_rate: float,
    steps: int,
    delta: float,
    orders: Iterable[float] = DEFAULT_ORDERS,
) -> tuple[float, float]:
    """Convenience: full chain from (z, q, T, delta) to (epsilon, order)."""
    orders = tuple(float(a) for a in orders)
    if steps == 0:
        # Nothing is released; the inputs must still describe a mechanism.
        _check_mechanism(noise_multiplier, sampling_rate, orders)
        _check_delta(delta)
        return 0.0, orders[0]
    curve = rdp_sampled_gaussian(noise_multiplier, sampling_rate, orders)
    return epsilon_at_delta(compose(curve, steps), delta)


def calibrate_noise(
    target_epsilon: float,
    sampling_rate: float,
    steps: int,
    delta: float,
    tolerance: float = 1e-4,
    orders: Iterable[float] = DEFAULT_ORDERS,
    bracket: tuple[float, float] = (1e-4, 1e4),
) -> float:
    """Bisect for the noise multiplier z whose epsilon matches the target.

    epsilon is monotone decreasing in z on the bracket; stops when
    |eps(z) - target| <= tolerance * target.
    """
    if not math.isfinite(target_epsilon) or target_epsilon <= 0:
        raise ConfigError("target epsilon must be finite and positive")
    orders = tuple(float(a) for a in orders)
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ConfigError("invalid bracket")

    def eps_of(zv: float) -> float:
        return epsilon_for(zv, sampling_rate, steps, delta, orders)[0]

    eps_lo, eps_hi = eps_of(lo), eps_of(hi)
    if not (eps_hi <= target_epsilon <= eps_lo):
        raise ConfigError(
            f"target epsilon {target_epsilon} unreachable in bracket "
            f"[{lo}, {hi}]: eps({lo})={eps_lo:.6g}, eps({hi})={eps_hi:.6g}"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # geometric bisection over scales
        eps_mid = eps_of(mid)
        if abs(eps_mid - target_epsilon) <= tolerance * target_epsilon:
            return mid
        if eps_mid > target_epsilon:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("noise calibration did not converge")
