import numpy as np
import pytest

from qybe import (
    DeformParams,
    DegenerateParameterError,
    QybeError,
    bracket_plus,
    bracket_plus_factorial,
    q_number,
    q_sub_bracket,
    qr_shift,
)

Q = 1.3


def test_q_number_two():
    assert abs(q_number(2, Q) - (Q + 1 / Q)) < 1e-14


def test_q_number_zero():
    assert abs(q_number(0, Q)) < 1e-14


def test_q_number_classical_limit():
    q = 1 + 1e-6
    assert abs(q_number(3, q) - 3) < 1e-5


def test_q_number_antisymmetry(rng):
    for _ in range(1000):
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        assert abs(q_number(-x, Q) + q_number(x, Q)) < 1e-12 * max(1, abs(q_number(x, Q)))


def test_q_number_base_inversion(rng):
    for _ in range(200):
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        a, b = q_number(x, Q), q_number(x, 1 / Q)
        assert abs(a - b) < 1e-12 * max(1, abs(a))


def test_q_number_degenerate():
    with pytest.raises(DegenerateParameterError):
        q_number(2, 1.0)
    with pytest.raises(DegenerateParameterError):
        q_number(2, -1.0)


def test_bracket_plus_one():
    assert abs(bracket_plus(1, Q) - 1) < 1e-14


def test_bracket_plus_factorial_empty():
    assert bracket_plus_factorial(0, Q) == 1.0


def test_bracket_plus_two_literal():
    # oracle: literal evaluation of the defining expression
    rq = np.sqrt(Q)
    expected = (-(rq ** 2) + rq ** -2) / (rq + 1 / rq)
    assert abs(bracket_plus(2, Q) - expected) < 1e-14


@pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
def test_qr_shift_odd(r):
    assert qr_shift(r, Q) == 0


def test_qr_shift_even():
    assert abs(qr_shift(2, Q) - 1j * np.pi / (2 * np.log(Q))) < 1e-14


def test_q_sub_bracket_literal():
    b = 1j * np.sqrt(Q)
    expected = (b ** 2 - b ** -2) / (b - 1 / b)
    assert abs(q_sub_bracket(2, Q) - expected) < 1e-14
    assert abs(q_sub_bracket(1, Q) - 1) < 1e-14
    assert q_sub_bracket(0, Q) == 0


def test_deform_params_validation():
    with pytest.raises(DegenerateParameterError):
        DeformParams(q=1.0)
    with pytest.raises(DegenerateParameterError):
        DeformParams(q=-1.0)
    with pytest.raises(DegenerateParameterError):
        DeformParams(q=np.exp(1j * np.pi / 4))  # 8th root of unity
    with pytest.raises(DegenerateParameterError):
        DeformParams(a=0.0)
    p = DeformParams(q=1.3, a=2.0)
    assert p.q == 1.3 + 0j


@pytest.mark.parametrize("q,a", [(np.nan, 1.0), (np.inf, 1.0), (complex(1.3, np.inf), 1.0),
                                 (1.3, np.nan), (1.3, np.inf), (1e30, 1.0)])
def test_deform_params_rejects_out_of_range(q, a):
    with pytest.raises(QybeError):
        DeformParams(q=q, a=a)
