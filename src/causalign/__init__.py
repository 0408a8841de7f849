"""causalign: causal structure discovery by aligning a supervised edge
predictor with the dataset it is about to explain.

The workflow: score-guided stochastic refinement over DAGs proposes
plausible structures for an observed dataset; each structure is fitted
with per-node regressions and resampled into a labeled synthetic
instance; a small neural edge predictor trains on those instances and
then scores every ordered variable pair of the original data, yielding
an edge probability matrix.
"""

# each module's __all__ is the one list of its public names; the package
# exports their union. The aliases keep the modules reachable after the
# star imports (causalign.refine becomes the refine function).
from . import errors as _errors, graph as _graph, scm as _scm, sim as _sim, scoring as _scoring
from . import refine as _refine, model as _model, metrics as _metrics, io as _io, pipeline as _pipeline
from .errors import *
from .graph import *
from .scm import *
from .sim import *
from .scoring import *
from .refine import *
from .model import *
from .metrics import *
from .io import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *_errors.__all__,
    *_graph.__all__,
    *_scm.__all__,
    *_sim.__all__,
    *_scoring.__all__,
    *_refine.__all__,
    *_model.__all__,
    *_metrics.__all__,
    *_io.__all__,
    *_pipeline.__all__,
]
