"""Adversarial grammar sequence forecaster."""

import os

# One BLAS thread, set before the first import below loads numpy, which is
# when OpenBLAS reads it. These matrices are too small for a second thread to
# help a process that runs alone, and two processes side by side slow each
# other about 5x with more. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import autodiff, adversarial, grammar, metrics, nn, synthdata  # noqa: E402,F401
from .grammar import GrammarConfig, GrammarModel, SequenceSample, gumbel_softmax  # noqa: E402,F401
from .synthdata import GroundTruthGrammar, SequenceDataset, build_preset_grammar  # noqa: E402,F401

__version__ = "0.1.0"
