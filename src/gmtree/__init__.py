"""Rate-distortion analysis of distributed coding on Gauss-Markov trees.

The library computes both descriptions of the quadratic rate region of a
tree source observed at its leaves: the achievable (test-channel) side and
the converse (noise-quantization) side, plus the structural tooling around
them: exact Markov-graph reading of a covariance, three-variable tree
embeddings with converse witnesses, reduction of arbitrary trees to complete
binary many-help-one form, a modular-lattice coding counterexample to
separate quantization, and Monte Carlo robustness checks for non-Gaussian
sources. Information quantities are in nats unless a name says bits.

Each API module's ``__all__`` is its public API and the one list of its
public names: the package re-exports every module's ``__all__`` and adds
``__version__`` and ``fixture_path``. Other module-level names (such as
``gauss.check_cov``, ``modelio.fmt`` and the solver constants) are imported
from their modules.
"""

from . import errors, gauss, trees, embedding, inner, outer, lattice, worstcase, modelio
from .errors import *
from .gauss import *
from .trees import *
from .embedding import *
from .inner import *
from .outer import *
from .lattice import *
from .worstcase import *
from .modelio import *
from . import fixtures as _fixtures

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Path of a bundled example model: allquarter3, star4, or figure_tree."""
    if not name.endswith(".json"):
        name += ".json"
    return str(_fixtures.path(name))


__all__ = ["__version__", "fixture_path"]
__all__ += errors.__all__
__all__ += gauss.__all__
__all__ += trees.__all__
__all__ += embedding.__all__
__all__ += inner.__all__
__all__ += outer.__all__
__all__ += lattice.__all__
__all__ += worstcase.__all__
__all__ += modelio.__all__
