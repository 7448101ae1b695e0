"""Givens-rotation QR as a spatial dataflow program with a PE-array simulator."""

from spatialqr.numeric import (
    AugmentedMatrix,
    Matrix,
    QrResult,
    VerificationReport,
    back_substitute,
    qr_givens_reference,
    solve,
    verify_qr,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedMatrix",
    "Matrix",
    "QrResult",
    "VerificationReport",
    "back_substitute",
    "qr_givens_reference",
    "solve",
    "verify_qr",
    "__version__",
]
