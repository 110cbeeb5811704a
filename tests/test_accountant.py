import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import fldp.accountant
from fldp.accountant import (
    DEFAULT_ORDERS,
    calibrate_noise,
    check_query,
    epsilon_at_delta,
    epsilon_for,
    rdp_sampled_gaussian,
)
from fldp.errors import ConfigError

# A numpy warning (overflow, invalid value) escaping the series fails.
# Hypothesis reports a falsified example through libcst, whose import warns
# through mypy_extensions; as an error that would abort the session instead.
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    ),
]


def rdp_single_step(noise_multiplier, sampling_rate, alpha):
    """The RDP eps(alpha) of one invocation: a one-order grid."""
    return rdp_sampled_gaussian(noise_multiplier, sampling_rate, (alpha,))[0]


def rdp_by_quadrature(noise_multiplier, sampling_rate, alpha):
    """Independent oracle: numerically integrate the Renyi integrand.

    A_alpha = E_{x ~ N(0, z^2)} [ ((1-q) + q exp((2x-1)/(2 z^2)))^alpha ]
    and eps(alpha) = log(A_alpha) / (alpha - 1). Uses adaptive quadrature on
    the exact integrand, fully independent of the series expansion under test.
    """
    z, q = noise_multiplier, sampling_rate

    def integrand(x):
        log_ratio = np.logaddexp(
            math.log1p(-q), math.log(q) + (2.0 * x - 1.0) / (2.0 * z * z)
        )
        log_pdf = -0.5 * (x / z) ** 2 - math.log(z * math.sqrt(2.0 * math.pi))
        return math.exp(log_pdf + alpha * log_ratio)

    # The integrand is a Gaussian tilted toward x ~ alpha; these bounds hold
    # its entire mass to far below the requested precision.
    lo, hi = -60.0 * z - 10.0, alpha + 60.0 * z + 10.0
    val, err = integrate.quad(
        integrand, lo, hi, points=[0.0, 1.0, alpha], limit=400,
        epsabs=1e-13, epsrel=1e-12,
    )
    assert err < 1e-9 * max(val, 1.0)
    return math.log(val) / (alpha - 1.0)


# -- single-step RDP -----------------------------------------------------------


def test_full_sampling_is_pure_gaussian():
    assert rdp_single_step(1.0, 1.0, 2.0) == 1.0
    assert rdp_single_step(2.0, 1.0, 8.0) == 1.0


def test_full_sampling_at_a_huge_noise_multiplier_is_finite():
    # z = 1e200 passes the noise-multiplier check (z * z is inf, 1/z^2 is
    # 0), but z**2 raised OverflowError in the q = 1 branch.
    eps, order = epsilon_for(1e200, 1.0, 10, 1e-9)
    assert math.isfinite(eps) and eps > 0
    assert order == max(DEFAULT_ORDERS)


@pytest.mark.parametrize("z,q", [(3e10, 0.0295), (3.2e10, 0.25), (1e11, 0.25)])
def test_series_stops_at_a_huge_noise_multiplier(z, q):
    # At such z one side's log terms are equal floats, and a stopping rule
    # that waited for them to fall strictly raised ArithmeticError.
    want = epsilon_for(1e9, q, 10, 1e-9)
    assert want[1] == 256.0 and round(want[0], 4) == 0.0556
    eps, order = epsilon_for(z, q, 10, 1e-9)
    assert order == want[1]
    assert eps == pytest.approx(want[0], rel=1e-12)


def test_rdp_vanishes_as_sampling_rate_shrinks():
    values = [rdp_single_step(1.0, q, 4.0) for q in (0.5, 0.1, 0.01, 0.001, 1e-5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8


@pytest.mark.parametrize(
    "z,q,alpha",
    [
        (1.0, 0.1, 4.0),      # integer order
        (2.048, 0.0295, 9.0),  # integer order, published regime
        (0.6144, 0.00295, 3.5),  # fractional order
    ],
)
def test_series_matches_quadrature_oracle(z, q, alpha):
    series = rdp_single_step(z, q, alpha)
    oracle = rdp_by_quadrature(z, q, alpha)
    assert series == pytest.approx(oracle, rel=1e-6)


def test_fractional_orders_below_two_match_quadrature():
    for alpha in (1.1, 1.5, 1.9):
        series = rdp_single_step(0.8, 0.05, alpha)
        oracle = rdp_by_quadrature(0.8, 0.05, alpha)
        assert series == pytest.approx(oracle, rel=1e-6)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    z=st.floats(0.3, 8.0),
    q=st.floats(-4.0, math.log10(0.5)).map(lambda e: 10.0**e),
    alpha=st.sampled_from(DEFAULT_ORDERS[:9]) | st.sampled_from(DEFAULT_ORDERS[9:]),
)
def test_series_matches_quadrature_oracle_property(z, q, alpha):
    # The oracle integrates in linear space (A_alpha must fit a float) and
    # resolves log A_alpha only to the quadrature's ~1e-12 absolute error.
    assume(alpha * (alpha - 1.0) / (2.0 * z * z) < 300.0)
    oracle = rdp_by_quadrature(z, q, alpha)
    assume(oracle * (alpha - 1.0) > 1e-5)
    assert rdp_single_step(z, q, alpha) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize(
    "z,q", [(2.048, 0.0295), (0.4, 0.25), (0.512, 0.0295), (0.6144, 0.000295), (3.0, 1.0)]
)
def test_grid_entries_equal_single_orders_bitwise(z, q):
    # Each order sums only its own terms, so its value is independent of
    # which other orders share the grid.
    rdp = rdp_sampled_gaussian(z, q)
    singles = [rdp_single_step(z, q, a) for a in DEFAULT_ORDERS]
    assert rdp.tolist() == singles
    shuffled = DEFAULT_ORDERS[::-3] + (3.25,)
    other_grid = rdp_sampled_gaussian(z, q, shuffled)
    assert other_grid[:-1].tolist() == [
        singles[DEFAULT_ORDERS.index(a)] for a in shuffled[:-1]
    ]


def test_rdp_monotonicity_grid():
    zs = (0.5, 1.0, 2.0, 4.0)
    qs = (0.001, 0.01, 0.1, 0.5)
    alphas = (1.5, 2.0, 4.0, 16.0, 64.0)
    for z in zs:
        for q in qs:
            eps_alpha = [rdp_single_step(z, q, a) for a in alphas]
            assert all(x >= 0.0 for x in eps_alpha)
            assert all(a <= b + 1e-15 for a, b in zip(eps_alpha, eps_alpha[1:]))
        for a in alphas:
            eps_q = [rdp_single_step(z, q, a) for q in qs]
            assert all(x <= y + 1e-15 for x, y in zip(eps_q, eps_q[1:]))
    for q in qs:
        for a in alphas:
            eps_z = [rdp_single_step(z, q, a) for z in zs]
            assert all(x >= y - 1e-15 for x, y in zip(eps_z, eps_z[1:]))


def test_invalid_orders_rejected():
    with pytest.raises(ConfigError):
        rdp_single_step(1.0, 0.1, 1.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            rdp_single_step(1.0, 0.1, alpha)
    with pytest.raises(ConfigError, match="finite"):
        rdp_sampled_gaussian(1.0, 0.1, orders=(2.0, math.inf))
    with pytest.raises(ConfigError, match="finite"):
        rdp_sampled_gaussian(1.0, 0.1, orders=(math.nan,))
    with pytest.raises(ConfigError):
        rdp_sampled_gaussian(1.0, 0.1, orders=[0.5, 2.0])
    with pytest.raises(ConfigError):
        rdp_sampled_gaussian(0.0, 0.1)
    with pytest.raises(ConfigError):
        rdp_sampled_gaussian(1.0, 0.0)


def test_series_longer_than_term_limit_raises():
    # An integer order has order + 1 terms; past the limit nothing is built.
    for alpha in (1e5, 1e20):
        with pytest.raises(ArithmeticError, match="series terms"):
            rdp_single_step(1.0, 0.1, alpha)
    assert rdp_single_step(1e3, 0.1, 99_999.0) > 0.0


def test_non_finite_noise_multiplier_rejected():
    # 1/z^2 is not finite either: z^2 underflows to 0 at 1e-200 and to a
    # subnormal whose inverse overflows at 1e-160.
    for z in (math.inf, math.nan, -math.inf, 1e-200, 1e-160):
        with pytest.raises(ConfigError, match="noise multiplier"):
            rdp_sampled_gaussian(z, 0.1)
        with pytest.raises(ConfigError, match="noise multiplier"):
            rdp_single_step(z, 0.1, 1.5)
        with pytest.raises(ConfigError, match="noise multiplier"):
            epsilon_for(z, 0.1, 10, 1e-9)


def test_smallest_noise_multiplier_is_where_the_inverse_square_overflows():
    z = 1.0 / math.sqrt(sys.float_info.max)
    assert math.isfinite(1.0 / (z * z))
    check_query((2.0,), noise_multiplier=z)
    below = math.nextafter(z, 0.0)
    assert 1.0 / (below * below) == math.inf
    with pytest.raises(ConfigError, match=r"1/z\^2 finite"):
        check_query((2.0,), noise_multiplier=below)


def series_floor(orders, steps):
    """The z below which the largest series term over `steps` steps overflows.

    That term is (n^2 - n) / (2 z^2) at a series' last index n: the largest
    order of an all-integer grid, else at least the term limit.
    """
    top = max(orders)
    n = top if all(float(a).is_integer() for a in orders) else max(top, 100_000)
    return math.sqrt(steps * (n * n - n) / 2.0 / sys.float_info.max)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    orders=st.lists(st.integers(2, 300).map(float), min_size=1, max_size=4)
    | st.lists(st.floats(1.01, 300.0), min_size=1, max_size=4),
    q=st.sampled_from((1e-6, 0.0295, 0.5, 0.99, 1.0)),
    steps=st.integers(1, 3000),
    scale=st.floats(0.5, 4.0),
)
def test_every_noise_multiplier_accepted_near_the_floor_gives_finite_results(
        orders, q, steps, scale):
    # The floor comes from the grid's largest order and the steps. A z the
    # check accepts runs the series without a warning (this module makes a
    # RuntimeWarning an error) and composes to a finite epsilon; one clearly
    # below the floor is a ConfigError.
    floor = series_floor(orders, steps)
    z = floor * scale
    if z < floor * (1.0 - 1e-9):
        with pytest.raises(ConfigError, match="noise multiplier"):
            epsilon_for(z, q, steps, 1e-9, orders)
        return
    if z <= floor * (1.0 + 1e-9):
        return  # rounding decides this close to the floor
    assert np.isfinite(rdp_sampled_gaussian(z, q, orders)).all()
    assert math.isfinite(epsilon_for(z, q, steps, 1e-9, orders)[0])


@pytest.mark.parametrize("orders", [(2.0, 3.0), (1.5,), DEFAULT_ORDERS])
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_noise_multiplier_at_the_floor_is_accepted_and_one_step_below_is_not(orders, q):
    steps = 10
    z = series_floor(orders, steps)
    for _ in range(64):  # the first float the check accepts, a few ulp away
        try:
            eps = epsilon_for(z, q, steps, 1e-9, orders)[0]
            break
        except ConfigError:
            z = math.nextafter(z, math.inf)
    else:
        pytest.fail(f"no z within 64 ulp above {series_floor(orders, steps)} accepted")
    assert math.isfinite(eps)
    with pytest.raises(ConfigError, match="noise multiplier"):
        epsilon_for(math.nextafter(z, 0.0), q, steps, 1e-9, orders)


# -- conversion to (epsilon, delta) ----------------------------------------------


def grid_index(order):
    return DEFAULT_ORDERS.index(order)


# Published accounting rows: (z, q, T) -> (epsilon at delta=1e-9, best order).
GOLDEN_ROWS = [
    (2.048, 0.0295, 2006, 4.5, 9.0),
    (1.536, 0.0295, 2006, 6.5, 7.0),
    (1.024, 0.0295, 2006, 13.0, 4.0),
    (0.6144, 0.00295, 2034, 7.2, 3.0),
    (0.6144, 0.000295, 3390, 3.7, 6.0),
    (0.512, 0.0295, 2006, 72.0, 1.5),
]


@pytest.mark.parametrize("z,q,steps,eps_ref,order_ref", GOLDEN_ROWS)
def test_golden_epsilon_rows(z, q, steps, eps_ref, order_ref):
    eps, order = epsilon_for(z, q, steps, delta=1e-9)
    assert eps == pytest.approx(eps_ref, rel=0.05)
    assert abs(grid_index(order) - grid_index(order_ref)) <= 1
    # Plain Python floats, not numpy scalars, at every public return.
    assert type(eps) is float and type(order) is float
    # The curve is a float64 array, on integer and fractional orders alike.
    rdp = rdp_sampled_gaussian(z, q)
    for curve in (rdp, rdp_sampled_gaussian(z, 1.0, (2.0,))):
        assert type(curve) is np.ndarray and curve.dtype == np.float64
    assert all(
        type(v) is float for v in epsilon_at_delta(DEFAULT_ORDERS, steps * rdp, 1e-9)
    )


def test_epsilon_decreases_with_noise_and_increases_with_steps():
    eps = [epsilon_for(z, 0.02, 1000, 1e-9)[0] for z in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    eps_t = [epsilon_for(1.0, 0.02, t, 1e-9)[0] for t in (10, 100, 1000, 5000)]
    assert all(a <= b for a, b in zip(eps_t, eps_t[1:]))


def test_enormous_noise_epsilon_limited_by_largest_order():
    # As z grows the RDP term vanishes and epsilon approaches the conversion
    # floor at the largest order, below ln(1/delta)/(alpha_max - 1).
    eps, order = epsilon_for(1e6, 0.01, 1000, 1e-9)
    assert order == 256.0
    assert eps < math.log(1e9) / (256.0 - 1.0)
    wider, _ = epsilon_for(1e6, 0.01, 1000, 1e-9, orders=(2.0, 4096.0))
    assert wider < eps


def test_epsilon_at_delta_validation():
    rdp = rdp_sampled_gaussian(1.0, 0.1)
    for delta in (0.0, 1.0, -1e-9, math.nan):
        with pytest.raises(ConfigError, match="delta"):
            epsilon_at_delta(DEFAULT_ORDERS, rdp, delta)
    with pytest.raises(ConfigError, match="nonempty"):
        epsilon_at_delta((), (), 1e-9)
    for order in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ConfigError, match="order"):
            epsilon_at_delta((order, 2.0), (0.1, 0.1), 1e-9)
    for rdp in ((0.1,), (0.1, 0.1, 0.1), [(0.1, 0.1)]):
        with pytest.raises(ConfigError, match="shape"):
            epsilon_at_delta((3.0, 2.0), rdp, 1e-9)


def test_undefined_orders_never_win_the_conversion():
    orders, rdp = (2.0, 3.0, 4.0), np.array((math.nan, 0.1, math.inf))
    assert epsilon_at_delta(orders, rdp, 1e-9) == epsilon_at_delta((3.0,), (0.1,), 1e-9)
    with np.errstate(invalid="ignore"):  # 0 * inf
        assert epsilon_at_delta(orders, 0 * rdp, 1e-9)[1] == 3.0


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    z=st.floats(0.5, 4.0),
    q=st.floats(1e-4, 1.0),
    steps=st.integers(1, 5000),
    delta=st.sampled_from([1e-9, 1e-5]),
    orders=st.sampled_from([DEFAULT_ORDERS[:9], DEFAULT_ORDERS[9:], (1.5, 2.5, 7.0)]),
)
def test_epsilon_for_is_the_composed_array_chain(z, q, steps, delta, orders):
    # T steps compose to T times the one-step array, bit for bit.
    rdp = rdp_sampled_gaussian(z, q, orders)
    assert epsilon_for(z, q, steps, delta, orders) == epsilon_at_delta(
        orders, steps * rdp, delta
    )


def test_zero_steps_epsilon_is_zero():
    assert epsilon_for(1.0, 0.1, 0, 1e-9) == (0.0, DEFAULT_ORDERS[0])


@pytest.mark.parametrize(
    "z,q,delta,orders",
    [
        (1.0, 0.1, 5.0, DEFAULT_ORDERS),      # delta outside (0, 1)
        (1.0, 0.1, 1e-9, ()),                 # empty grid
        (1.0, 0.1, 1e-9, (0.5, 2.0)),         # order below 1
        (1.0, 0.1, 1e-9, (2.0, math.inf)),    # non-finite order
        (0.0, 0.1, 1e-9, DEFAULT_ORDERS),     # no noise
        (math.nan, 0.1, 1e-9, DEFAULT_ORDERS),
        (1.0, 1.5, 1e-9, DEFAULT_ORDERS),     # sampling rate above 1
    ],
)
def test_zero_steps_still_validates_inputs(z, q, delta, orders):
    with pytest.raises(ConfigError):
        epsilon_for(z, q, 0, delta, orders=orders)


# -- calibration ------------------------------------------------------------------


def test_calibration_round_trip():
    q, steps, delta = 0.0295, 2006, 1e-9
    target, _ = epsilon_for(1.024, q, steps, delta)
    z = calibrate_noise(target, q, steps, delta, tolerance=1e-6)
    assert z == pytest.approx(1.024, rel=0.01)


def test_calibration_at_paper_point_is_pinned():
    z = calibrate_noise(4.5, 0.0295, 2006, 1e-9)
    assert z == pytest.approx(2.028284660788171, rel=1e-12)


def test_calibration_evaluates_through_the_module_epsilon_for(monkeypatch):
    # Wrapping fldp.accountant.epsilon_for sees every evaluation of the
    # bisection: each series run is one call through the attribute.
    real_epsilon_for, real_rdp = fldp.accountant.epsilon_for, fldp.accountant._rdp
    calls, series = [], []

    def counting_epsilon_for(*args):
        calls.append(args[0])
        return real_epsilon_for(*args)

    def counting_rdp(*args):
        series.append(args[0])
        return real_rdp(*args)

    monkeypatch.setattr(fldp.accountant, "epsilon_for", counting_epsilon_for)
    monkeypatch.setattr(fldp.accountant, "_rdp", counting_rdp)
    z = calibrate_noise(4.5, 0.0295, 2006, 1e-9)
    assert z == pytest.approx(2.028284660788171, rel=1e-12)
    assert len(calls) > 2 and calls[:2] == [1e-4, 1e4] and calls[-1] == z
    assert series == calls


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_calibration_rejects_bad_tolerance_before_evaluating(tolerance, monkeypatch):
    calls = []
    monkeypatch.setattr(fldp.accountant, "epsilon_for", lambda *a: calls.append(a))
    with pytest.raises(ConfigError, match="tolerance"):
        calibrate_noise(4.5, 0.0295, 2006, 1e-9, tolerance=tolerance)
    assert calls == []


def test_calibration_monotone_spot_check():
    q, steps, delta = 0.01, 500, 1e-8
    z_loose = calibrate_noise(10.0, q, steps, delta)
    z_tight = calibrate_noise(1.0, q, steps, delta)
    assert z_tight > z_loose


def test_calibration_rejects_bad_targets():
    with pytest.raises(ConfigError):
        calibrate_noise(math.inf, 0.1, 100, 1e-9)
    with pytest.raises(ConfigError):
        calibrate_noise(0.0, 0.1, 100, 1e-9)
    with pytest.raises(ConfigError, match="unreachable"):
        calibrate_noise(1e-12, 0.5, 10**6, 1e-9, bracket=(1e-4, 1.0))


def test_default_order_grid_contents():
    assert 1.1 in DEFAULT_ORDERS and 1.9 in DEFAULT_ORDERS
    assert 2.0 in DEFAULT_ORDERS and 64.0 in DEFAULT_ORDERS
    assert 128.0 in DEFAULT_ORDERS and 256.0 in DEFAULT_ORDERS
    assert list(DEFAULT_ORDERS) == sorted(DEFAULT_ORDERS)


# Pairs differ by at least 5%, far beyond the accountant's rounding error.
_Z = st.floats(0.5, 4.0)
_Q = st.floats(1e-4, 0.5)
_T = st.integers(1, 3000)
_GROWTH = st.floats(1.05, 3.0)
_DELTAS = st.sampled_from([1e-9, 1e-5])


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(z=_Z, q=_Q, steps=_T, growth=_GROWTH, delta=_DELTAS)
def test_epsilon_monotone_in_noise_rate_and_steps(z, q, steps, growth, delta):
    eps = epsilon_for(z, q, steps, delta)[0]
    assert epsilon_for(z * growth, q, steps, delta)[0] <= eps
    assert epsilon_for(z, min(1.0, q * growth), steps, delta)[0] >= eps
    assert epsilon_for(z, q, int(steps * growth) + 1, delta)[0] >= eps
