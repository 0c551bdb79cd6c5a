import numpy as np

from killing3.tensor_core import GRAM, LORENTZIAN, RIEMANNIAN, gram_residual


def test_gram_residual_both_signatures():
    frame = np.eye(3)
    assert gram_residual(frame, np.eye(3), RIEMANNIAN) == 0.0
    assert gram_residual(frame, np.diag([-1.0, 1.0, 1.0]), LORENTZIAN) == 0.0
    assert gram_residual(frame, np.eye(3), LORENTZIAN) == 2.0
    assert GRAM[LORENTZIAN][0, 0] == -1.0

