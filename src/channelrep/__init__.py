"""Minimal real-vector representations of quantum channels.

A channel from a dx-dimensional input space to a dy-dimensional output space
is encoded by its Choi matrix; all such Choi matrices live in a real subspace
of Hermitian matrices of dimension dx^2 dy^2 - dx^2 + 1.  This package builds
an orthonormal basis of that subspace, expands channels into coefficient
vectors, reassembles them exactly, and ships the channel constructors,
predicates and CLI needed to work with the representation.

The package exports ``__version__`` and the ``__all__`` of each of the
modules ``channel_basis``, ``channels``, ``choi``, ``errors`` and ``linalg``;
each public name is declared once, in its module.  The file formats
(``channelrep.fileio``) and the CLI (``channelrep.cli``) are imported by name.
"""

from .channel_basis import *
from .channels import *
from .choi import *
from .errors import *
from .linalg import *

# After the star imports the attribute ``channel_basis`` is the function, so
# each list is taken from its submodule by full name.
from .channel_basis import __all__ as _basis
from .channels import __all__ as _channels
from .choi import __all__ as _choi
from .errors import __all__ as _errors
from .linalg import __all__ as _linalg

__version__ = "0.1.0"

__all__ = ["__version__", *_basis, *_channels, *_choi, *_errors, *_linalg]
