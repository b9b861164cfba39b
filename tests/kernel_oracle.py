"""Frozen reference for ``MLP.loss_and_grad``: the stacked kernel's arithmetic,
written out once and not changed since.

Any rewrite of the production kernel must give the same bits as this one
(NaN payloads aside). It lays out the flat parameter vector itself, so it
shares no code with the production path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_loss_and_grad"]


def _layout(sizes):
    slices = []
    offset = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = slice(offset, offset + n_in * n_out)
        offset += n_in * n_out
        b = slice(offset, offset + n_out)
        offset += n_out
        slices.append((w, b, n_in, n_out))
    return slices


def reference_loss_and_grad(sizes, theta, x, y):
    """Losses (T,) and gradients (T, P) of a ReLU MLP with layer widths ``sizes``."""
    slices = _layout(sizes)
    t_count = theta.shape[0]
    layers = [
        (theta[:, w].reshape(t_count, n_in, n_out), theta[:, None, b])
        for w, b, n_in, n_out in slices
    ]
    pre = []
    acts = [x]
    a = x
    for wm, bv in layers[:-1]:
        z = a @ wm + bv
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    wm, bv = layers[-1]
    z = a @ wm + bv

    zs = z - z.max(axis=2, keepdims=True)
    expz = np.exp(zs)
    sums = expz.sum(axis=2, keepdims=True)
    probs = expz / sums
    t, n = y.shape
    picked = (np.arange(t)[:, None], np.arange(n), y)
    losses = np.mean(np.log(sums[..., 0]) - zs[picked], axis=1)

    grad = np.zeros_like(theta)
    delta = probs
    delta[picked] -= 1.0
    delta /= n
    for i in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, n_in, n_out = slices[i]
        grad[:, w_sl] = (acts[i].swapaxes(1, 2) @ delta).reshape(t, n_in * n_out)
        grad[:, b_sl] = delta.sum(axis=1)
        if i > 0:
            delta = (delta @ layers[i][0].swapaxes(1, 2)) * (pre[i - 1] > 0.0)
    return losses, grad
