"""Privacy-aware linear projections with deterministic evaluation tooling.

The package fits linear maps that keep one labeling separable while
suppressing others, scores both sides with simple classifiers, and sweeps
the resulting utility/privacy trade-off reproducibly from a CLI or from
Python. Everything downstream of a seed is deterministic.
"""

from . import (classify, data, dataio, errors, experiment, linalg, projections,
               scatter, seeds, synthetic)
from .classify import *  # noqa: F403
from .data import *  # noqa: F403
from .dataio import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiment import *  # noqa: F403
from .linalg import *  # noqa: F403
from .projections import *  # noqa: F403
from .scatter import *  # noqa: F403
from .seeds import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *data.__all__, *scatter.__all__, *linalg.__all__, *projections.__all__,
    *classify.__all__, *dataio.__all__, *experiment.__all__,
    *synthetic.__all__, *seeds.__all__, *errors.__all__,
]
