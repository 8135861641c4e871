"""Channel- and region-attention models for visual question answering.

Modules: ``tensor`` (autodiff core), ``encoder`` (GRU question encoding),
``attention`` (the one ``attend`` pipeline), ``model`` (the four variants),
``classifier``, ``training`` (Adam/clipping/dropout/checkpoints), ``data``
(containers and toy tasks), ``metrics`` (accuracy and Wu-Palmer scores),
``cli``.
"""

from . import tensor   # its import pins numpy's BLAS to one thread

__version__ = "0.1.0"
