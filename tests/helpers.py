"""Shared oracle-style helpers for the test suite."""

import numpy as np

from vcrnet import attention as A
from vcrnet.layers import FeedForwardParams, LinearParams, init_layer_norm
from vcrnet.tensor import Tensor


def np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def zero_unit(d, d_ff, h=2):
    """An attention unit with every weight zero (LayerNorms at gamma=1, beta=0)."""

    def zlin(a, b):
        return LinearParams(Tensor(np.zeros((a, b))), Tensor(np.zeros(b)))

    return A.AttnUnitParams(
        mha=A.MhaParams(
            wq=Tensor(np.zeros((d, d))),
            wk=Tensor(np.zeros((d, d))),
            wv=Tensor(np.zeros((d, d))),
            wo=Tensor(np.zeros((d, d))),
            heads=h,
        ),
        ffn=FeedForwardParams(lin1=zlin(d, d_ff), lin2=zlin(d_ff, d)),
        ln1=init_layer_norm(d),
        ln2=init_layer_norm(d),
    )
