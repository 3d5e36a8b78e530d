"""Parallel expansion backends and the locked ablation variant.

Mapping to the paper's implementations:

* :class:`VectorizedBackend` — "GPU-Par" (data-parallel SIMD kernels),
  the production route and the engine's default,
* :class:`ThreadPoolBackend` — "CPU-Par" (coarse-grained dynamic
  scheduling; one worker at Tnum = 1),
* :class:`SequentialBackend` — the per-node reference transcription of
  Algorithm 2, the semantic oracle,
* :class:`LockedDictEngine` — "CPU-Par-d" (locked dynamic memory).
"""

from ._native import NativeKernelUnavailable
from .backend import ComposedBackend, ExpansionBackend
from .locked import LockedDictEngine
from .sequential import SequentialBackend
from .threads import ThreadPoolBackend
from .vectorized import VectorizedBackend

__all__ = [
    "ComposedBackend",
    "ExpansionBackend",
    "LockedDictEngine",
    "NativeKernelUnavailable",
    "SequentialBackend",
    "ThreadPoolBackend",
    "VectorizedBackend",
]
