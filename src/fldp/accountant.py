"""Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism.

Given the noise multiplier z (noise standard deviation over L2 sensitivity)
and the per-step sampling probability q, the accountant evaluates the
per-order Renyi divergence eps(alpha) of one mechanism invocation, composes
additively over steps, and converts the composed curve to an (epsilon,
delta) guarantee by minimizing over orders. A curve is a float64 array with
one entry per order, and T invocations compose to T times it:

    rdp = rdp_sampled_gaussian(z, q, orders)
    eps, order = epsilon_at_delta(orders, T * rdp, delta)

epsilon_for(z, q, T, delta, orders) is that chain with its inputs checked
once; it gives epsilon 0 at T = 0, where nothing is released.

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
import sys

import numpy as np
import numpy.typing as npt
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
# The smallest z whose 1/z^2, which the series divides by, is finite.
_MIN_NOISE_MULTIPLIER = 1.0 / math.sqrt(sys.float_info.max)


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


def check_query(orders: npt.ArrayLike, *, noise_multiplier=None, sampling_rate=None,
                steps=None, delta=None) -> np.ndarray:
    """The order grid as a float64 array, after checking it and each input given.

    The keywords are epsilon_for's arguments; one left as None is not checked.
    """
    alphas = np.asarray(orders, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ConfigError(f"order grid must be a nonempty 1-d list, got {alphas.shape}")
    if not np.all(np.isfinite(alphas)):
        raise ConfigError(f"Renyi orders must be finite, got {alphas.tolist()}")
    if not np.all(alphas > 1):
        raise ConfigError(f"Renyi order must exceed 1, got {alphas.min()}")
    if sampling_rate is not None and not 0 < sampling_rate <= 1:
        raise ConfigError("sampling_rate must be in (0, 1]")
    z = noise_multiplier
    if z is not None:
        _check_noise_multiplier(z, alphas, 1 if steps is None else max(steps, 1))
    if steps is not None and steps < 0:
        raise ConfigError("steps must be >= 0")
    if delta is not None and not 0 < delta < 1:
        raise ConfigError("delta must be in (0, 1)")
    return alphas


def _check_noise_multiplier(z: float, alphas: np.ndarray, steps: int) -> None:
    """Raise ConfigError unless every series term at z, composed, is finite.

    The largest term a series forms is (n^2 - n) / (2 z^2) at its last index
    n: the largest order for a grid of integer orders, whose series stop at
    the order. A fractional series runs as long as its stopping rule needs,
    so n is then also the term limit. T steps scale it by T, and with n >= 2
    the bound also keeps 1/z^2 finite.
    """
    top = float(alphas.max())
    n = top if (alphas == np.floor(alphas)).all() else max(top, _MAX_SERIES_TERMS)
    span = steps * ((n * n - n) / 2.0)
    if not (0.0 < z < math.inf and z * z > 0.0 and span / (z * z) < math.inf):
        floor = _MIN_NOISE_MULTIPLIER * math.sqrt(span)
        raise ConfigError(
            f"noise multiplier must be finite and at least {floor:.4g} (orders "
            f"up to {top:g} over {steps} step(s)) with 1/z^2 finite, got {z}")


def _rdp(z: float, q: float, alphas: np.ndarray) -> np.ndarray:
    """Per-step RDP at each order of a checked grid."""
    if q == 1.0:
        return alphas / (2.0 * z**2)
    log_a = np.empty(alphas.size)
    whole = alphas == np.floor(alphas)
    if whole.any():
        log_a[whole] = _log_a_int_orders(q, z, alphas[whole])
    if not whole.all():
        log_a[~whole] = _log_a_frac_orders(q, z, alphas[~whole])
    return np.maximum(0.0, log_a / (alphas - 1.0))


def _best_epsilon(alphas, rdp, delta: float) -> tuple[float, float]:
    """Best (epsilon, order) over a checked grid and its composed RDP."""
    eps = rdp + np.log1p(-1.0 / alphas) - np.log(delta * alphas) / (alphas - 1.0)
    # An undefined order (nan, say inf * 0 steps) never wins.
    best = int(np.argmin(np.where(np.isnan(eps), np.inf, eps)))
    return float(max(0.0, eps[best])), float(alphas[best])


def rdp_sampled_gaussian(
    noise_multiplier: float,
    sampling_rate: float,
    orders: npt.ArrayLike = DEFAULT_ORDERS,
) -> np.ndarray:
    """RDP of one invocation: a float64 array with one entry per order."""
    z, q = noise_multiplier, sampling_rate
    return _rdp(z, q, check_query(orders, noise_multiplier=z, sampling_rate=q))


def epsilon_at_delta(
    orders: npt.ArrayLike, rdp: npt.ArrayLike, delta: float
) -> tuple[float, float]:
    """Best (epsilon, order) at the target delta of a composed RDP array."""
    alphas = check_query(orders, delta=delta)
    rdp = np.asarray(rdp, dtype=float)
    if rdp.shape != alphas.shape:
        raise ConfigError(f"rdp has shape {rdp.shape}, the order grid {alphas.shape}")
    return _best_epsilon(alphas, rdp, delta)


def epsilon_for(
    noise_multiplier: float,
    sampling_rate: float,
    steps: int,
    delta: float,
    orders: npt.ArrayLike = DEFAULT_ORDERS,
) -> tuple[float, float]:
    """Convenience: full chain from (z, q, T, delta) to (epsilon, order)."""
    z, q = noise_multiplier, sampling_rate
    alphas = check_query(orders, noise_multiplier=z, sampling_rate=q, steps=steps,
                         delta=delta)
    if steps == 0:
        # Nothing is released; the inputs must still describe a mechanism.
        return 0.0, float(alphas[0])
    return _best_epsilon(alphas, steps * _rdp(z, q, alphas), delta)


def calibrate_noise(
    target_epsilon: float,
    sampling_rate: float,
    steps: int,
    delta: float,
    tolerance: float = 1e-4,
    orders: npt.ArrayLike = DEFAULT_ORDERS,
    bracket: tuple[float, float] = (1e-4, 1e4),
) -> float:
    """Bisect for the noise multiplier z whose epsilon matches the target.

    epsilon is monotone decreasing in z on the bracket; stops when
    |eps(z) - target| <= tolerance * target.
    """
    if not math.isfinite(target_epsilon) or target_epsilon <= 0:
        raise ConfigError("target epsilon must be finite and positive")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    alphas = check_query(orders)
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ConfigError("invalid bracket")

    def eps_of(zv: float) -> float:
        # Through the module attribute, so a wrapped epsilon_for sees every call.
        return epsilon_for(zv, sampling_rate, steps, delta, alphas)[0]

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
