"""Cross-Kerr QND photodetection toolkit.

Dense Fock-space simulation of coherence-induced cross-Kerr
nonlinearities: level-scheme Hamiltonians (Lambda, N-type, and the
five-level polarization-preserving scheme), the quintic secular analysis
of the perturbed dark state, QND homodyne readout, polarization-basis
invariance checks, and measurement back-action budgets.
"""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
from .fock import *
from .polarization import *
from .qnd import *
from .schemes import *
from .secular import *

__all__ = [name for name in dir() if not name.startswith("_")]
