"""q-deformed scalar arithmetic: q-numbers, signed brackets and branch-fixed helpers.

All scalars are complex double precision.  Fractional powers, logs and square
roots use the numpy principal branch throughout; the choice is made once here
and every other module goes through these helpers.
"""

from dataclasses import dataclass

import numpy as np

SLQ2 = "slq2"
OSPQ12 = "ospq12"
ALGEBRAS = (SLQ2, OSPQ12)

# Largest space a dense chain, composite, Lax or commutant computation builds.
DESK_BOUND = 4096
# Largest dense centralizer system in complex entries; r = 4 needs 7e7.  With
# the solver's magnitudes and pattern that is 25 bytes an entry: 2.5 GB here.
COMMUTANT_BUDGET = 10 ** 8


class QybeError(Exception):
    """Base error for this package."""


class DegenerateParameterError(QybeError):
    """Deformation parameter too close to 0, +-1 or a low-order root of unity."""


class PoleError(QybeError):
    """Spectral parameter hit a pole of the baxterized coefficient function."""


@dataclass(frozen=True)
class DeformParams:
    """Deformation data shared by every construction.

    q         deformation parameter, must be generic (not 0, +-1, nor a root of
              unity of order <= 2*r_max)
    a         scale of the spectral parameter in the baxterized coefficient
              f(u); a = log(q) makes trigonometric families polynomial in q**u
    algebra   SLQ2 or OSPQ12
    precision base tolerance unit used by numerical checks
    r_max     largest representation dimension the root-of-unity guard covers
    """

    q: complex = 1.3
    a: complex = 1.0
    algebra: str = SLQ2
    precision: float = 1e-12
    r_max: int = 8

    def __post_init__(self):
        q = complex(self.q)
        if self.algebra not in ALGEBRAS:
            raise QybeError(f"unknown algebra tag {self.algebra!r}")
        if not (np.isfinite(q) and np.isfinite(complex(self.a))):
            raise QybeError(f"q and a must be finite, got q={q}, a={self.a}")
        if abs(q) < 1e-9 or abs(self.a) < 1e-12:
            raise DegenerateParameterError("q and a must be nonzero")
        if abs(q - 1.0) < 1e-6 or abs(q + 1.0) < 1e-6:
            raise DegenerateParameterError("q too close to +-1")
        for k in range(1, 2 * self.r_max + 1):
            try:
                qk = q ** k
            except OverflowError:
                raise QybeError(f"|q| = {abs(q):g} is out of range: q**{k} overflows") from None
            if abs(qk - 1.0) < 1e-6:
                raise DegenerateParameterError(f"q is (near) a root of unity of order {k}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", complex(self.a))

    def with_algebra(self, algebra):
        return DeformParams(self.q, self.a, algebra, self.precision, self.r_max)


def q_number(x, q):
    """[x]_q = (q^x - q^-x) / (q - 1/q), principal branch of q^x."""
    q = complex(q)
    if abs(q - 1.0) < 1e-9 or abs(q + 1.0) < 1e-9:
        raise DegenerateParameterError("q_number undefined at q = +-1")
    x = complex(x)
    return (q ** x - q ** (-x)) / (q - 1.0 / q)


def qr_shift(r, q):
    """Imaginary weight shift attached to even-dimensional irreps: 0 for odd r,
    i*pi/(2 log q) for even r."""
    return ((-1) ** int(r) + 1) * 1j * np.pi / (4 * np.log(complex(q)))


def bracket_plus(n, q):
    """Signed bracket [n]_+ = ((-1)^(n-1) q^(n/2) + q^(-n/2)) / (q^(1/2) + q^(-1/2))."""
    q = complex(q)
    rq = np.sqrt(q)
    return ((-1.0) ** (n - 1) * rq ** n + rq ** (-n)) / (rq + 1.0 / rq)


def bracket_plus_factorial(n, q):
    """[n]_+! with the empty product equal to 1."""
    out = complex(1.0)
    for k in range(1, int(n) + 1):
        out *= bracket_plus(k, q)
    return out


def q_sub_bracket(n, q):
    """q-number at the substituted base i*sqrt(q): [n]_{i q^(1/2)}."""
    base = 1j * np.sqrt(complex(q))
    if int(n) == 0:
        return 0j
    return (base ** n - base ** (-n)) / (base - 1.0 / base)
