"""Distance sequences of small connected graphs.

The package computes nondecreasing all-pairs distance sequences, compares
them in the coordinatewise dominance order, evaluates Wiener-type distance
indices over them, constructs the extremal families that maximize the
sequence within several graph classes, and verifies those maximality
statements exhaustively at small orders.
"""

from wienerseq.enumeration import *
from wienerseq.families import *
from wienerseq.graphs import *
from wienerseq.indices import *
from wienerseq.sequences import *
from wienerseq.verifier import *
from wienerseq import enumeration, families, graphs, indices, sequences, verifier

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += enumeration.__all__
__all__ += families.__all__
__all__ += graphs.__all__
__all__ += indices.__all__
__all__ += sequences.__all__
__all__ += verifier.__all__
