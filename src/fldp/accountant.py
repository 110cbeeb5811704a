"""Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism.

Given the noise multiplier z (noise standard deviation over L2 sensitivity)
and the per-step sampling probability q, the accountant evaluates the
per-order Renyi divergence eps(alpha) of one mechanism invocation, composes
additively over steps, and converts the composed curve to an (epsilon,
delta) guarantee by minimizing over orders.

eps(alpha) is log(A_alpha)/(alpha - 1) where A_alpha is the alpha-th moment
of the likelihood ratio between N(0, z^2) and the mixture
(1 - q) N(0, z^2) + q N(1, z^2). A_alpha is evaluated with the stable
log-domain binomial expansion: a finite sum at integer alpha, and the
two-sided infinite series with erfc tail weights at fractional alpha. All
arithmetic is float64 in log space; binomial coefficients go through
log-gamma. For q == 1 the mechanism is a plain Gaussian and
eps(alpha) = alpha / (2 z^2).

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


def _log_add(logx: float, logy: float) -> float:
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return math.log1p(math.exp(a - b)) + b


def _log_sub(logx: float, logy: float) -> float:
    """log(exp(logx) - exp(logy)); requires logx >= logy."""
    if logy == -math.inf:
        return logx
    if logx == logy:
        return -math.inf
    if logx < logy:
        raise ArithmeticError("log_sub of a negative difference")
    return logx + math.log1p(-math.exp(logy - logx))


def _log_comb(n: float, k: float) -> float:
    return (
        special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    )


def _log_erfc(x: float) -> float:
    # erfc(x) = 2 * Phi(-x * sqrt(2)); log_ndtr is accurate far into the tail.
    return math.log(2.0) + float(special.log_ndtr(-x * math.sqrt(2.0)))


def _log_a_int(q: float, z: float, alpha: int) -> float:
    log_a = -math.inf
    log_q = math.log(q)
    log1mq = math.log1p(-q)
    for i in range(alpha + 1):
        term = (
            _log_comb(alpha, i)
            + i * log_q
            + (alpha - i) * log1mq
            + (i * i - i) / (2.0 * z * z)
        )
        log_a = _log_add(log_a, term)
    return log_a


def _binom_sign(alpha: float, i: int) -> int:
    # binom(alpha, i) = prod_{j<i} (alpha - j) / i!; negative factors appear
    # once j exceeds alpha.
    negatives = max(0, i - 1 - math.floor(alpha))
    return -1 if negatives % 2 else 1


def _log_a_frac(q: float, z: float, alpha: float) -> float:
    # Two-sided expansion around the crossover point of the privacy loss.
    log_a0 = log_a1 = -math.inf
    z0 = z * z * math.log(1.0 / q - 1.0) + 0.5
    log_q = math.log(q)
    log1mq = math.log1p(-q)
    last0 = last1 = -math.inf
    for i in range(_MAX_SERIES_TERMS):
        log_coef = _log_comb(alpha, i)
        sign = _binom_sign(alpha, i)
        j = alpha - i

        log_t0 = log_coef + i * log_q + j * log1mq
        log_t1 = log_coef + j * log_q + i * log1mq
        log_e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2.0) * z))
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2.0) * z))
        log_s0 = log_t0 + (i * i - i) / (2.0 * z * z) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * z * z) + log_e1

        if sign > 0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)

        if (
            log_s0 < last0
            and log_s1 < last1
            and max(log_s0, log_s1) < _SERIES_LOG_CUTOFF
        ):
            return _log_add(log_a0, log_a1)
        last0, last1 = log_s0, log_s1
    raise ArithmeticError(
        f"subsampled-Gaussian series did not converge (q={q}, z={z}, alpha={alpha})"
    )


def rdp_single_step(noise_multiplier: float, sampling_rate: float, alpha: float) -> float:
    """Single-invocation RDP eps(alpha) of the sampled Gaussian mechanism."""
    if alpha <= 1:
        raise ConfigError(f"Renyi order must exceed 1, got {alpha}")
    if not 0 < sampling_rate <= 1:
        raise ConfigError("sampling_rate must be in (0, 1]")
    if noise_multiplier <= 0:
        raise ConfigError("noise multiplier must be positive")
    if sampling_rate == 1.0:
        return float(alpha / (2.0 * noise_multiplier**2))
    if float(alpha).is_integer():
        log_a = _log_a_int(sampling_rate, noise_multiplier, int(alpha))
    else:
        log_a = _log_a_frac(sampling_rate, noise_multiplier, float(alpha))
    return float(max(0.0, log_a / (alpha - 1.0)))


@dataclass(frozen=True)
class RdpCurve:
    """Per-order RDP of one invocation plus a composition count."""

    orders: tuple[float, ...]
    eps_per_step: tuple[float, ...]
    steps: int = 1

    def __post_init__(self):
        if not self.orders:
            raise ConfigError("order grid must be nonempty")
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
    if not orders:
        raise ConfigError("order grid must be nonempty")
    eps = tuple(
        rdp_single_step(noise_multiplier, sampling_rate, a) for a in orders
    )
    return RdpCurve(orders, eps, steps=1)


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Compose the mechanism `steps` more times (multiplies the count)."""
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    return replace(curve, steps=curve.steps * steps)


def epsilon_at_delta(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Best (epsilon, order) at the target delta over the curve's grid."""
    if not 0 < delta < 1:
        raise ConfigError("delta must be in (0, 1)")
    if not curve.orders:
        raise ConfigError("order grid must be nonempty")
    best_eps = math.inf
    best_order = curve.orders[0]
    for alpha, total in zip(curve.orders, curve.total()):
        if math.isinf(total):
            continue
        eps = (
            total
            + math.log1p(-1.0 / alpha)
            - math.log(delta * alpha) / (alpha - 1.0)
        )
        if eps < best_eps:
            best_eps = eps
            best_order = alpha
    return float(max(0.0, best_eps)), float(best_order)


def epsilon_for(
    noise_multiplier: float,
    sampling_rate: float,
    steps: int,
    delta: float,
    orders: Iterable[float] = DEFAULT_ORDERS,
) -> tuple[float, float]:
    """Convenience: full chain from (z, q, T, delta) to (epsilon, order)."""
    if steps == 0:
        return 0.0, float(next(iter(orders)))
    curve = compose(rdp_sampled_gaussian(noise_multiplier, sampling_rate, orders), steps)
    return epsilon_at_delta(curve, delta)


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
