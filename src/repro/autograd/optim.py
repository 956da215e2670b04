"""Gradient-descent optimizers for the autodiff engine.

The paper trains all embedding models with Adam; SGD and Adagrad are
provided for completeness since the paper lists them as the widely-used
alternatives.

Row-sparse fast path
--------------------
When a parameter accumulates a :class:`~repro.autograd.sparse.SparseGrad`
(opt-in via ``Parameter(..., sparse_grad=True)``), every optimizer
applies a row-wise update kernel instead of sweeping the full table, and
each kernel is pinned **bitwise identical** to the dense update it
replaces:

* **SGD without momentum** and **Adagrad** are bit-identical by
  construction: a row with zero gradient receives a zero parameter delta
  and a zero accumulator delta, so skipping it changes nothing.
* **SGD with momentum** and **Adam** mathematically touch *every* row at
  *every* step (decayed momentum keeps drifting parameters whose
  gradient is zero).  These optimizers go lazy: touched rows are updated
  immediately, untouched rows carry a per-row step counter and are
  caught up when next touched or at :meth:`Optimizer.flush`.  The
  catch-up **exactly replays** the missed per-step operations (the
  geometric decay of ``m``/``v`` and the corresponding parameter drift,
  with the bias corrections of each replayed step) rather than applying
  a closed-form geometric sum — re-associating the arithmetic would
  break bit-identity.  Rows with all-zero momentum state are skipped,
  which is an exact no-op.  When every stale row is exactly one step
  behind — the per-batch-flush regime of models whose
  ``post_batch_hook`` mutates parameters directly (TransE) — the replay
  collapses to a fused in-place kernel: predicated (``where=``) ufuncs
  over the full tables on persistent scratch buffers, with no gathers,
  scatters or temporaries, applying the dense path's own per-element
  operations to the stale rows only.

Because laziness defers updates, callers must :meth:`Optimizer.flush`
before reading parameters for evaluation, snapshots, or checkpoints; the
KGE training loop does this at every epoch boundary (and after every
batch for models whose ``post_batch_hook`` mutates parameters directly).
The learning rate must stay constant between flushes; the KGE training
loop keeps it constant for the whole fit.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

import numpy as np

from ..obs import get_registry, span
from .sparse import SparseGrad
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adagrad", "Adam"]


def _broadcast_rowwise(scalars: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape per-row scalars to broadcast over ``(rows, ...)`` work arrays."""
    return scalars.reshape((-1,) + (1,) * (ndim - 1))


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _observe_step(self) -> None:
        """Tally one optimizer step in the active metrics registry.

        Subclasses call this at the top of ``step()``; against the null
        backend it is two no-op calls, cheap enough for the hot loop.
        """
        get_registry().counter("optim.steps_count").inc()

    def flush(self) -> None:
        """Settle all lazily-deferred row updates.

        After this call every parameter holds exactly the value the dense
        path would hold.  A no-op for eager optimizers (plain SGD,
        Adagrad) and for parameters that never received a sparse
        gradient.  Must be called before parameters are read for
        evaluation, snapshotting, or checkpointing, and before the
        learning rate is changed.
        """


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        # Lazy row-sparse bookkeeping (momentum only): completed step
        # count per parameter, and per-row caught-up-through markers.
        self._pt = [0] * len(self.params)
        self._last: list[np.ndarray | None] = [None] * len(self.params)
        # Scratch for the fused one-step replay; it carries no state.
        self._scratch: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._observe_step()
        mu = self.momentum
        for i, (param, velocity) in enumerate(zip(self.params, self._velocity)):
            grad = param.grad
            if grad is None:
                continue
            if mu == 0.0:
                # Bit-identical by construction: absent rows would have
                # received `x -= lr · 0`, an exact no-op.
                if isinstance(grad, SparseGrad):
                    param.data[grad.rows] -= self.lr * grad.values
                else:
                    param.data -= self.lr * grad
                continue
            if isinstance(grad, SparseGrad):
                last = self._last[i]
                if last is None:
                    last = self._last[i] = np.full(
                        param.data.shape[0], self._pt[i], dtype=np.int64
                    )
                    # From now on gather_rows must settle rows before
                    # the forward pass reads them (see Tensor._catch_up).
                    param._catch_up = partial(self._catch_up_rows, i)
                rows = grad.rows
                self._replay(i, param.data, velocity, last, rows, self._pt[i])
                self._pt[i] += 1
                v_rows = velocity[rows]
                v_rows *= mu
                v_rows += grad.values
                velocity[rows] = v_rows
                param.data[rows] -= self.lr * v_rows
                last[rows] = self._pt[i]
            else:
                last = self._last[i]
                if last is not None:
                    # A dense gradient on a lazily-tracked parameter:
                    # settle every stale row before the dense update.
                    self._replay(i, param.data, velocity, last, None, self._pt[i])
                self._pt[i] += 1
                velocity *= mu
                velocity += grad
                param.data -= self.lr * velocity
                if last is not None:
                    last[:] = self._pt[i]

    def flush(self) -> None:
        if self.momentum == 0.0:
            return
        with span("optim.flush"):
            for i, (param, velocity) in enumerate(zip(self.params, self._velocity)):
                last = self._last[i]
                if last is None:
                    continue
                self._replay(i, param.data, velocity, last, None, self._pt[i])
                last[:] = self._pt[i]

    def _catch_up_rows(self, i: int, rows: np.ndarray) -> None:
        """Settle specific rows ahead of a forward-pass gather."""
        last = self._last[i]
        if last is None:
            return
        rows = np.unique(rows)
        self._replay(i, self.params[i].data, self._velocity[i], last, rows, self._pt[i])
        last[rows] = self._pt[i]

    def _replay(
        self,
        i: int,
        data: np.ndarray,
        velocity: np.ndarray,
        last: np.ndarray,
        rows: np.ndarray | None,
        target: int,
    ) -> None:
        """Exactly replay the zero-gradient steps of stale rows.

        For every missed step the dense path computed ``v = μ·v`` then
        ``x = x − lr·v``; replaying those two rounded operations per step
        (rather than a closed-form geometric sum, which re-associates the
        arithmetic) keeps the lazy path bitwise equal to the dense one.
        Rows whose velocity is entirely zero are skipped — their replay
        is an exact no-op.

        When the whole stale set is exactly one step behind (a model's
        ``post_batch_hook`` forcing a flush per batch), the replay runs
        fused in place: predicated ufuncs apply the same two rounded
        operations to the stale rows of the full tables, with no gather,
        scatter, sort or temporaries.
        """
        if rows is None:
            stale = last < target
            if not stale.any():
                return
            if int(last.min()) >= target - 1:
                mask = _broadcast_rowwise(stale, data.ndim)
                buf = self._scratch.get(i)
                if buf is None or buf.shape != data.shape:
                    buf = self._scratch[i] = np.empty_like(data)
                np.multiply(velocity, self.momentum, out=velocity, where=mask)
                np.multiply(velocity, self.lr, out=buf, where=mask)
                np.subtract(data, buf, out=data, where=mask)
                return
            rows = np.flatnonzero(stale)
        gaps = target - last[rows]
        hot = gaps > 0
        if not np.any(hot):
            return
        rows = rows[hot]
        gaps = gaps[hot]
        live = np.any(velocity[rows].reshape(rows.shape[0], -1) != 0.0, axis=1)
        rows = rows[live]
        gaps = gaps[live]
        if rows.shape[0] == 0:
            return
        order = np.argsort(-gaps, kind="stable")
        rows = rows[order]
        gaps = gaps[order]
        v_work = velocity[rows]
        x_work = data[rows]
        neg = -gaps
        for offset in range(1, int(gaps[0]) + 1):
            count = int(np.searchsorted(neg, -offset, side="right"))
            vw = v_work[:count]
            vw *= self.momentum
            x_work[:count] -= self.lr * vw
        velocity[rows] = v_work
        data[rows] = x_work


class Adagrad(Optimizer):
    """Adagrad (Duchi et al., 2011)."""

    def __init__(self, params: Iterable[Tensor], lr: float, eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps
        self._accum = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._observe_step()
        for param, accum in zip(self.params, self._accum):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, SparseGrad):
                # Bit-identical by construction: absent rows would have
                # added 0² to the accumulator and subtracted an exact 0.
                rows, values = grad.rows, grad.values
                accum_rows = accum[rows]
                accum_rows += values**2
                accum[rows] = accum_rows
                param.data[rows] -= self.lr * values / (np.sqrt(accum_rows) + self.eps)
            else:
                accum += grad**2
                param.data -= self.lr * grad / (np.sqrt(accum) + self.eps)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction.

    The dense path runs fused in-place on two persistent scratch buffers
    per parameter (no per-step temporaries); the sparse path updates the
    touched rows eagerly and catches stale rows up by exact replay (see
    the module docstring).  Both are pinned bitwise identical to the
    classic allocating implementation by regression tests.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # Lazy row-sparse bookkeeping: completed step count per
        # parameter, per-row caught-up-through markers, the step count at
        # lazy engagement, and the bias-correction schedule of every
        # participating step since engagement (replayed updates must use
        # the bias factors of the step being replayed).
        self._pt = [0] * len(self.params)
        self._last: list[np.ndarray | None] = [None] * len(self.params)
        self._base = [0] * len(self.params)
        self._bias1: list[list[float]] = [[] for _ in self.params]
        self._bias2: list[list[float]] = [[] for _ in self.params]
        # Scratch buffers for the fused dense step; they carry no state.
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        self._observe_step()
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for i, (param, m, v) in enumerate(zip(self.params, self._m, self._v)):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, SparseGrad):
                self._step_sparse(i, param, m, v, grad, bias1, bias2)
            else:
                last = self._last[i]
                if last is not None:
                    # Dense gradient on a lazily-tracked parameter:
                    # settle every stale row before the dense update.
                    self._replay(i, param, m, v, None, self._pt[i])
                self._step_dense(i, param, m, v, grad)
                self._pt[i] += 1
                if last is not None:
                    self._bias1[i].append(bias1)
                    self._bias2[i].append(bias2)
                    last[:] = self._pt[i]

    def flush(self) -> None:
        with span("optim.flush"):
            for i, (param, m, v) in enumerate(zip(self.params, self._m, self._v)):
                last = self._last[i]
                if last is None:
                    continue
                self._replay(i, param, m, v, None, self._pt[i])
                last[:] = self._pt[i]

    def _catch_up_rows(self, i: int, rows: np.ndarray) -> None:
        """Settle specific rows ahead of a forward-pass gather."""
        last = self._last[i]
        if last is None:
            return
        rows = np.unique(rows)
        self._replay(i, self.params[i], self._m[i], self._v[i], rows, self._pt[i])
        last[rows] = self._pt[i]

    # ------------------------------------------------------------------
    # Dense kernel (fused, allocation-free)
    # ------------------------------------------------------------------
    def _buffers(self, i: int, param: Tensor) -> tuple[np.ndarray, np.ndarray]:
        pair = self._scratch.get(i)
        if pair is None or pair[0].shape != param.data.shape:
            pair = (np.empty_like(param.data), np.empty_like(param.data))
            self._scratch[i] = pair
        return pair

    def _step_dense(
        self,
        i: int,
        param: Tensor,
        m: np.ndarray,
        v: np.ndarray,
        grad: np.ndarray,
    ) -> None:
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        buf, tmp = self._buffers(i, param)
        if self.weight_decay > 0.0:
            np.multiply(param.data, self.weight_decay, out=buf)
            np.add(grad, buf, out=buf)
            g = buf
        else:
            g = grad
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        # lr · (m / bias1) / (sqrt(v / bias2) + eps), in the rounding
        # order of the allocating expression this fused form replaces.
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bias1, out=buf)
        buf *= self.lr
        buf /= tmp
        param.data -= buf

    # ------------------------------------------------------------------
    # Sparse kernel (eager on touched rows, lazy elsewhere)
    # ------------------------------------------------------------------
    def _step_sparse(
        self,
        i: int,
        param: Tensor,
        m: np.ndarray,
        v: np.ndarray,
        grad: SparseGrad,
        bias1: float,
        bias2: float,
    ) -> None:
        last = self._last[i]
        if last is None:
            self._base[i] = self._pt[i]
            last = self._last[i] = np.full(
                param.data.shape[0], self._pt[i], dtype=np.int64
            )
            # From now on gather_rows must settle rows before the
            # forward pass reads them (see Tensor._catch_up).
            param._catch_up = partial(self._catch_up_rows, i)
        rows, values = grad.rows, grad.values
        self._replay(i, param, m, v, rows, self._pt[i])
        self._pt[i] += 1
        self._bias1[i].append(bias1)
        self._bias2[i].append(bias2)
        if self.weight_decay > 0.0:
            values = values + self.weight_decay * param.data[rows]
        m_rows = m[rows]
        m_rows *= self.beta1
        m_rows += (1.0 - self.beta1) * values
        m[rows] = m_rows
        v_rows = v[rows]
        v_rows *= self.beta2
        v_rows += (1.0 - self.beta2) * values**2
        v[rows] = v_rows
        update = self.lr * (m_rows / bias1)
        update /= np.sqrt(v_rows / bias2) + self.eps
        param.data[rows] -= update
        last[rows] = self._pt[i]

    def _replay(
        self,
        i: int,
        param: Tensor,
        m: np.ndarray,
        v: np.ndarray,
        rows: np.ndarray | None,
        target: int,
    ) -> None:
        """Exactly replay zero-gradient Adam steps for stale rows.

        The dense path keeps decaying ``m``/``v`` and nudging the
        parameter every step even when a row's gradient is zero.  The
        replay applies those per-step operations — with the recorded
        bias corrections of each replayed step — to the stale rows only,
        in the same rounding order, so the result is bitwise equal to
        the dense path.  Without weight decay, rows whose moments are
        entirely zero are skipped: their replayed update is exactly zero.

        When the whole stale set is exactly one step behind (a model's
        ``post_batch_hook`` forcing a flush per batch), the replay runs
        fused in place on the persistent scratch pair instead — see
        :meth:`_replay_one_step`.
        """
        last = self._last[i]
        if rows is None:
            stale = last < target
            if not stale.any():
                return
            if int(last.min()) >= target - 1:
                self._replay_one_step(i, param, m, v, stale, target)
                return
            rows = np.flatnonzero(stale)
        gaps = target - last[rows]
        hot = gaps > 0
        if not np.any(hot):
            return
        rows = rows[hot]
        gaps = gaps[hot]
        wd = self.weight_decay
        if wd == 0.0:
            flat_m = m[rows].reshape(rows.shape[0], -1)
            flat_v = v[rows].reshape(rows.shape[0], -1)
            live = np.any(flat_m != 0.0, axis=1) | np.any(flat_v != 0.0, axis=1)
            rows = rows[live]
            gaps = gaps[live]
            if rows.shape[0] == 0:
                return
        order = np.argsort(-gaps, kind="stable")
        rows = rows[order]
        gaps = gaps[order]
        b1 = np.asarray(self._bias1[i], dtype=np.float64)
        b2 = np.asarray(self._bias2[i], dtype=np.float64)
        base = self._base[i]
        starts = last[rows]
        m_work = m[rows]
        v_work = v[rows]
        x_work = param.data[rows]
        ndim = x_work.ndim
        neg = -gaps
        for offset in range(1, int(gaps[0]) + 1):
            count = int(np.searchsorted(neg, -offset, side="right"))
            idx = starts[:count] + offset - base - 1
            f1 = _broadcast_rowwise(b1[idx], ndim)
            f2 = _broadcast_rowwise(b2[idx], ndim)
            mw = m_work[:count]
            vw = v_work[:count]
            xw = x_work[:count]
            if wd > 0.0:
                g = wd * xw
                mw *= self.beta1
                mw += (1.0 - self.beta1) * g
                vw *= self.beta2
                vw += (1.0 - self.beta2) * g**2
            else:
                mw *= self.beta1
                vw *= self.beta2
            update = self.lr * (mw / f1)
            update /= np.sqrt(vw / f2) + self.eps
            xw -= update
        m[rows] = m_work
        v[rows] = v_work
        param.data[rows] = x_work

    def _replay_one_step(
        self,
        i: int,
        param: Tensor,
        m: np.ndarray,
        v: np.ndarray,
        stale: np.ndarray,
        target: int,
    ) -> None:
        """Fused replay of a single missed step for every stale row.

        The per-batch-flush regime (TransE's row renormalisation) leaves
        every untouched row exactly one step behind at each flush, so the
        general gather/sort/scatter kernel degenerates to copying nearly
        the whole table three times per batch.  Here the same per-step
        operations run as predicated (``where=``) ufuncs directly on the
        full ``m``/``v``/parameter tables, using the dense step's
        persistent scratch pair — no gathers, no temporaries.  The
        element-wise operations and their rounding order are identical
        to one iteration of :meth:`_replay`'s loop, and rows whose
        moments are zero come out bitwise unchanged exactly as the dense
        path leaves them, so bit-identity is preserved without the
        live-row filter.
        """
        mask = _broadcast_rowwise(stale, param.data.ndim)
        step = target - self._base[i] - 1
        f1 = self._bias1[i][step]
        f2 = self._bias2[i][step]
        buf, tmp = self._buffers(i, param)
        wd = self.weight_decay
        if wd > 0.0:
            np.multiply(param.data, wd, out=buf, where=mask)
            np.multiply(m, self.beta1, out=m, where=mask)
            np.multiply(buf, 1.0 - self.beta1, out=tmp, where=mask)
            np.add(m, tmp, out=m, where=mask)
            np.multiply(v, self.beta2, out=v, where=mask)
            np.multiply(buf, buf, out=tmp, where=mask)
            np.multiply(tmp, 1.0 - self.beta2, out=tmp, where=mask)
            np.add(v, tmp, out=v, where=mask)
        else:
            np.multiply(m, self.beta1, out=m, where=mask)
            np.multiply(v, self.beta2, out=v, where=mask)
        np.divide(m, f1, out=buf, where=mask)
        np.multiply(buf, self.lr, out=buf, where=mask)
        np.divide(v, f2, out=tmp, where=mask)
        np.sqrt(tmp, out=tmp, where=mask)
        np.add(tmp, self.eps, out=tmp, where=mask)
        np.divide(buf, tmp, out=buf, where=mask)
        np.subtract(param.data, buf, out=param.data, where=mask)
