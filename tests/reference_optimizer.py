"""Per-tensor reference optimizer: the oracle for ``gram.training.optimizer_apply``.

It steps each named parameter array on its own, with its own Adam moment
buffers, as the trainer did before a module's parameters became one flat
array. SGD and Adam are elementwise, so the flat update must agree with
this one bit for bit.
"""

import numpy as np

from gram.training import OptimizerConfig


class ReferenceOptimizer:
    """One optimizer's run state over named arrays: step count and Adam's
    moment buffers by name, created on first use."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.step = 0
        self.m: dict = {}
        self.v: dict = {}

    def apply(self, params: dict, grads: dict) -> dict:
        """``params`` (name -> array) after one step on ``grads`` (name ->
        array); the input arrays are left as they are."""
        cfg = self.cfg
        self.step += 1
        lr = cfg.lr_at(self.step)
        out = {}
        for name, p in params.items():
            g = grads[name]
            if cfg.kind == "sgd":
                out[name] = p - lr * g
                continue
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            m_hat = m / (1.0 - cfg.beta1 ** self.step)
            v_hat = v / (1.0 - cfg.beta2 ** self.step)
            out[name] = p - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        return out
