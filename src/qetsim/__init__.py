"""Exact, seedable simulator and estimators for a minimal two-qubit
energy teleportation protocol."""

from . import analysis, model, noise, protocol, simcore
from .model import ModelParams, analytic_V
from .protocol import Mode, Target, run_protocol

__version__ = "0.1.0"
