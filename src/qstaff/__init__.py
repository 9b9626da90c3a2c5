"""Staffing optimization for many-server queues under rate uncertainty.

The package computes Erlang-C wait probabilities (exactly, continuously
extended, and through square-root-staffing bounds), sweeps cost versus
quality-of-service frontiers, and sizes single- and multi-station
systems when the arrival rates are only known through a scenario
distribution. A discrete-event simulator provides an independent
empirical check, and a small CLI ties the solvers to JSON scenario
files.

Each module lists what it offers in its own __all__; the package
re-exports those lists and nothing else. The CLI (qstaff.cli) is not
re-exported.
"""
from ._version import __version__
from .erlang import *        # noqa: F403
from .errors import *        # noqa: F403
from .files import *         # noqa: F403
from .frontier import *      # noqa: F403
from .joint import *         # noqa: F403
from .multistation import *  # noqa: F403
from .scenarios import *     # noqa: F403
from .simulate import *      # noqa: F403
from .stochastic import *    # noqa: F403
from . import (erlang, errors, files, frontier, joint, multistation, scenarios,
               simulate, stochastic)

__all__ = ["__version__", *erlang.__all__, *errors.__all__, *files.__all__,
           *frontier.__all__, *joint.__all__, *multistation.__all__,
           *scenarios.__all__, *simulate.__all__, *stochastic.__all__]
