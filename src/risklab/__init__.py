"""risklab: risk-entropy curves and Gibbs generalisation risk for learning machines."""

__version__ = "0.1.0"

from .perceptron import *  # noqa: F401,F403
from .replica import *  # noqa: F401,F403
from .gibbs import *  # noqa: F401,F403
from .predictors import *  # noqa: F401,F403
from .datasets import *  # noqa: F401,F403
from .mcmc import *  # noqa: F401,F403
from .workers import *  # noqa: F401,F403
from .reconstruction import *  # noqa: F401,F403
from .sweeps import *  # noqa: F401,F403
