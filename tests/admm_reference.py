"""The ADMM iteration as written before the success probe rode in the
delta-step's last loss call: the delta-step's loss calls (the RGE call, or
BO's initial-sample and acquisition calls), then a one-row label call.
Its RGE draws each iteration's directions from the stream when it needs
them, as before a DirectionSource drew them ahead.

Tests run the package's run_attack through these (see ``two_call_run``)
and require the same records, final perturbation bytes, ledger and
victim rows, in the same order, as the package's iteration, whose last
loss call carries the probe and whose directions are drawn ahead.
"""

import numpy as np
import pytest

from admmattack import admm, prox
from admmattack.admm import (
    AttackState,
    BestIterate,
    DeltaBackend,
    IterationRecord,
    delta_zo_step,
)
from admmattack.bo import BoConfig, BoDeltaSolver
from admmattack.core import distortion_value, lp_norms
from admmattack.grad_est import RgeConfig
from admmattack.losses import is_success


def make_delta_step(spec, cfg, rge_cfg=None, bo_cfg=None):
    """The delta-step, whose loss calls carry the step's own points alone."""
    if cfg.delta_backend is DeltaBackend.ZO:
        rge_cfg = rge_cfg or RgeConfig()

        def zo_step(state, loss, rng):
            return delta_zo_step(state, cfg, rge_cfg, loss, rng)

        return zo_step, rge_cfg.q + 1
    solver = BoDeltaSolver(spec.x0, spec.epsilon, bo_cfg or BoConfig())

    def bo_step(state, loss, rng):
        delta = solver.step(state.z + state.u / cfg.rho, cfg.rho, loss, rng)
        return delta, solver.best_f

    return bo_step, solver.cfg.init_samples + solver.cfg.max_bo_iters


def probe(best, v, spec, oracle):
    x = spec.x0 + v
    success = is_success(oracle, x.clip(0.0, 1.0, out=x), spec)
    dval = distortion_value(v, spec.distortion, spec.beta)
    first = best.queries_at_success
    if success and (first is None or dval < best.dist_value):
        best = BestIterate(np.array(v), dval, oracle.queries_used if first is None else first,
                           lp_norms(v))
    return success, dval, best


def admm_iterate(state, spec, cfg, oracle, rng, loss, delta_step):
    zin = state.zstep_input
    if zin is None:
        zin = prox.ZStepInput(a=np.empty(spec.dim), x0=spec.x0, epsilon=spec.epsilon,
                              gamma=spec.gamma, rho=cfg.rho, distortion=spec.distortion,
                              beta=spec.beta)
    np.subtract(state.delta, state.u / cfg.rho, out=zin.a)
    z = prox.zstep(zin)

    new = AttackState(delta=state.delta, z=z, u=state.u, k=state.k + 1, best=state.best,
                      zstep_input=zin)
    new.delta, loss_val = delta_step(new, loss, rng)
    new.u = z - new.delta
    new.u *= cfg.rho
    new.u += state.u

    success, dval, new.best = probe(state.best, z, spec, oracle)
    norms = new.best.norms if new.best.perturbation is not None else lp_norms(z)
    record = IterationRecord(new.k, loss_val, dval, *norms,
                             cumulative_queries=oracle.queries_used, success=success)
    return new, record


class InlineDirections:
    """A DirectionSource that draws nothing ahead: each call draws from the stream."""

    def __init__(self, rng, q, d, iterations):
        self.unit_directions = rng.unit_directions

    def close(self):
        pass


def two_call_run(*args, **kwargs):
    """admm.run_attack(*args, **kwargs) with the iteration above, for either backend."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(admm, "make_delta_step", make_delta_step)
        m.setattr(admm, "admm_iterate", admm_iterate)
        m.setattr(admm, "DirectionSource", InlineDirections)
        return admm.run_attack(*args, **kwargs)
