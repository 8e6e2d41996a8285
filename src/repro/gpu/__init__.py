"""GPU hardware configuration: the RTX 3080 baseline of Table 1."""

from repro.gpu.config import GPUConfig, RTX3080_CONFIG

__all__ = [
    "GPUConfig",
    "RTX3080_CONFIG",
]
