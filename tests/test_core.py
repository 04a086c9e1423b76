import numpy as np
import pytest

from lapden import RunTrace

HISTORIES = ("residual_history", "fidelity_history", "lambda_history")


class TestRunTrace:
    @pytest.mark.parametrize("short", HISTORIES)
    def test_unequal_histories_rejected(self, short):
        histories = {name: np.ones(2 if name == short else 3) for name in HISTORIES}
        with pytest.raises(ValueError, match="length iters_run"):
            RunTrace(3, **histories, dt_used=None, converged=False)
