"""Independent oracle routes used by the test suite.

Each oracle computes a quantity the package also computes, but through a
different algorithm (textbook summation, incomplete-gamma identities, or
high-precision mpmath quadrature), so agreement is meaningful evidence
rather than a tautology.
"""
import math

import mpmath as mp
from scipy.special import gammaincc, gammaln

mp.mp.dps = 40


def hand_summation_erlang_c(n, lam):
    """Textbook Erlang-C formula: direct summation of the Poisson terms
    lam^k/k!, accumulated as a running product so intermediate values stay
    inside double range. Valid for lam up to a few hundred."""
    rho = lam / n
    term = 1.0
    head = 1.0
    for k in range(1, n):
        term *= lam / k
        head += term
    tail = term * (lam / n) / (1.0 - rho)
    return tail / (head + tail)


def mp_erlang_c(n, lam):
    """Integer Erlang C via Poisson cdf/pmf identities in mpmath.

    1/B(n, lam) = P(N <= n)/P(N = n) for N ~ Poisson(lam); no recursion,
    so this is independent of the package's inverse-blocking iteration.
    """
    lam = mp.mpf(lam)
    cdf = mp.gammainc(n + 1, a=lam, b=mp.inf, regularized=True)
    pmf = mp.e ** (-lam) * lam**n / mp.factorial(n)
    ib = cdf / pmf
    rho = lam / n
    return 1 / (rho + (1 - rho) * ib)


def mp_alpha_bar(n, lam):
    """Continuous Erlang-C extension by direct mpmath quadrature of the
    defining integral, at 40 significant digits."""
    n = mp.mpf(n)
    lam = mp.mpf(lam)
    integral = mp.quad(lambda t: t * mp.e ** (-lam * t) * (1 + t) ** (n - 1), [0, mp.inf])
    return 1 / (lam * integral)


def gamma_identity_alpha_bar(n, lam):
    """Closed form for the continuous extension via regularized upper
    incomplete gamma functions Q, evaluated in double precision:

        1/alpha_bar = e^lam lam^(-n) Gamma(n+1) [Q(n+1,lam) - (lam/n) Q(n,lam)]

    Loses a couple of digits to cancellation for lam beyond ~1e5; use
    mp_alpha_bar where that matters. The package's kernel now evaluates
    the same scipy gammaincc (in a rearranged, cancellation-free form), so
    this route checks the algebra rather than the special function; the
    mpmath routes below are the independent oracles.
    """
    q = gammaincc(n + 1.0, lam) - (lam / n) * gammaincc(n, lam)
    log_inv = lam - n * math.log(lam) + float(gammaln(n + 1.0)) + math.log(q)
    return math.exp(-log_inv)


def mp_gamma_alpha_bar(n, lam):
    """Continuous Erlang-C extension from the incomplete-gamma identity of
    gamma_identity_alpha_bar, evaluated entirely in mpmath at 40 digits.

    At that precision the cancellation in Q(n+1,lam) - (lam/n) Q(n,lam) is
    harmless, and mpmath's gammainc shares no code with scipy, so this is
    an independent reference that, unlike mp_alpha_bar, stays fast for lam
    up to 1e6.
    """
    n = mp.mpf(n)
    lam = mp.mpf(lam)
    q_n = mp.gammainc(n, a=lam, b=mp.inf, regularized=True)
    q_n1 = mp.gammainc(n + 1, a=lam, b=mp.inf, regularized=True)
    inv = mp.e**lam * lam ** (-n) * mp.gamma(n + 1) * (q_n1 - (lam / n) * q_n)
    return 1 / inv


def mp_halfin_whitt(beta):
    beta = mp.mpf(beta)
    return float(1 / (1 + mp.sqrt(2 * mp.pi) * beta * mp.ncdf(beta) * mp.e ** (beta**2 / 2)))


def mp_hw_a(n, lam):
    """Bound argument a = sqrt(-2n(1 - rho + ln rho)) at 40 digits."""
    n = mp.mpf(n)
    lam = mp.mpf(lam)
    rho = lam / n
    return float(mp.sqrt(-2 * n * (1 - rho + mp.log(rho))))


def mp_jvlz_bounds(n, lam):
    """(lower, upper) sandwich bounds of erlang.jvlz_bounds_at at 40 digits,
    with a, phi(a) and Phi(a) from mpmath and no overflow at any a."""
    n = mp.mpf(n)
    lam = mp.mpf(lam)
    rho = lam / n
    gamma = (n - lam) / mp.sqrt(n)
    a = mp.sqrt(-2 * n * (1 - rho + mp.log(rho)))
    phi = mp.npdf(a)
    den_upper = rho + gamma * (mp.ncdf(a) / phi + 2 / (3 * mp.sqrt(n)))
    return 1 / (den_upper + gamma / (phi * (12 * n - 1))), 1 / den_upper
