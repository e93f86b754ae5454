"""repro.dialects — the dialect stack HIDA is built from.

Existing-dialect substrates: ``arith``, ``scf``, ``affine``, ``memref``,
``linalg`` and the HLS directive dialect.  HIDA-specific
dialects: the Functional/Structural dataflow dialect in
:mod:`repro.dialects.dataflow`.
"""

from . import affine, affine_map, arith, dataflow, hls, linalg, memref, scf

__all__ = [
    "affine",
    "affine_map",
    "arith",
    "dataflow",
    "hls",
    "linalg",
    "memref",
    "scf",
]
