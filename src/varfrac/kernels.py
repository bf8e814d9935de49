"""Symmetric spatial jump laws, as the chain engine reads them.

A kernel family is the jump law at every position. A model's spatial part
(`model.Diffusion` or `model.Stable1D`) is its own kernel family: it holds
the coefficient that sets the jumps and samples them, so `kernel_family`
returns it, and the family names below are the same classes.
"""

from __future__ import annotations

from .model import Diffusion, Model, Stable1D

# bench/spans.py wraps `sample` under these names.
DiffusionKernelFamily = Diffusion
StableKernelFamily = Stable1D


def kernel_family(model: Model) -> Diffusion | Stable1D:
    """The jump law at every position: the model's spatial part."""
    return model.spatial
