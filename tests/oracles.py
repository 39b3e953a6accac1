"""Test-only oracles for synthetic victims."""

import numpy as np

from admmattack.losses import QueryOracle


class FunctionOracle(QueryOracle):
    """Adapts a per-point scores function, applied row by row."""

    def __init__(self, scores_fn):
        super().__init__()
        self.scores_fn = scores_fn

    def _scores(self, x):
        return np.asarray([self.scores_fn(row) for row in x], dtype=np.float64)
