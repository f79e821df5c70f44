"""mpmath references for the Eisenstein tests; shares no code with poletrace."""

import mpmath as mp


def bessel_k(order: complex, x: float) -> complex:
    with mp.workdps(30):
        return complex(mp.besselk(mp.mpc(order), x))


def _xi(u):
    return mp.pi ** (-u / 2) * mp.gamma(u / 2) * mp.zeta(u)


def _estar(s, x, y, n_terms: int):
    s, x, y = mp.mpc(s), mp.mpf(x), mp.mpf(y)
    acc = mp.mpc(0)
    for n in range(1, n_terms + 1):
        sigma = mp.fsum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        acc += (mp.mpf(n) ** (s - 0.5) * sigma * mp.besselk(s - 0.5, 2 * mp.pi * n * y)
                * mp.cos(2 * mp.pi * n * x))
    return _xi(2 * s) * y**s + _xi(2 * s - 1) * y ** (1 - s) + 4 * mp.sqrt(y) * acc


def estar(s: complex, x: float, y: float, n_terms: int, dps: int = 30) -> complex:
    """Completed series xi(2s) E(s, z) from its Fourier expansion, at dps digits."""
    with mp.workdps(dps):
        return complex(_estar(s, x, y, n_terms))


def eisenstein(s: complex, x: float, y: float, n_terms: int, dps: int = 40) -> complex:
    """E(s, z) = E*(s, z) / xi(2s) from the Fourier expansion, at dps digits."""
    with mp.workdps(dps):
        return complex(_estar(s, x, y, n_terms) / _xi(2 * mp.mpc(s)))


def estar_center(x: float, y: float, n_terms: int) -> complex:
    """E*(1/2, z), the limit of the Fourier expansion at s = 1/2, at 40 digits.

    The two xi poles cancel to sqrt(y) (log y + gamma - log 4 pi); the Bessel
    sum has sigma_0(n) = d(n) and K_0.
    """
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        acc = mp.fsum(sum(1 for d in range(1, n + 1) if n % d == 0)
                      * mp.besselk(0, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
                      for n in range(1, n_terms + 1))
        constant = mp.log(y) + mp.euler - mp.log(4 * mp.pi)
        return complex(mp.sqrt(y) * (constant + 4 * acc))


def gauss_legendre_node(n: int, x0: float) -> tuple[float, float]:
    """The Gauss-Legendre node of P_n next to x0 and its weight, at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(6):
            dp = n * (mp.legendre(n - 1, x) - x * mp.legendre(n, x)) / (1 - x * x)
            x -= mp.legendre(n, x) / dp
        dp = n * (mp.legendre(n - 1, x) - x * mp.legendre(n, x)) / (1 - x * x)
        return float(x), float(2 / ((1 - x * x) * dp * dp))
