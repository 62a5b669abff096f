"""Right-tailed recursive unit-root tests for explosive episodes.

Detection (sup ADF families and robust variants), wild-bootstrap
inference, episode date-stamping, post-detection diagnostics, and data
generators for simulation studies.  The package exports the ``__all__``
list of each module; other helpers are reached by module path.
"""

from . import bootstrap, datestamp, dgpsim, exceptions, inference, ols, recursive, robust, series
from .bootstrap import *  # noqa: F403
from .datestamp import *  # noqa: F403
from .dgpsim import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .inference import *  # noqa: F403
from .ols import *  # noqa: F403
from .recursive import *  # noqa: F403
from .robust import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for module in (exceptions, series, ols, recursive, robust, bootstrap, datestamp, inference, dgpsim)
      for name in module.__all__),
]
