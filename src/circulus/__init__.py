"""Rigorous enclosures for the classical polygon and barycenter bounds on pi."""

from .exact import (
    Enclosure,
    Precision,
    Q,
    bits_for_digits,
    correct_digits,
    enc_arcsin,
    enc_arctan,
    enc_cos,
    enc_sin,
    enc_sqrt,
    enc_tan,
    pi_reference,
    render,
)
from .verdict import Outcome, Verdict

__version__ = "0.1.0"

__all__ = [
    "Enclosure",
    "Precision",
    "Q",
    "Outcome",
    "Verdict",
    "bits_for_digits",
    "correct_digits",
    "enc_arcsin",
    "enc_arctan",
    "enc_cos",
    "enc_sin",
    "enc_sqrt",
    "enc_tan",
    "pi_reference",
    "render",
    "__version__",
]
