"""Exact-arithmetic toolkit for nets of skew bilinear forms.

The package links three pictures of the same data: a net of alternating
forms on a 2m-dimensional space, the degree-m hypersurface cut out by the
Pfaffian of the net, and the linear section of Gr(2, 2m) orthogonal to the
net.  Everything is computed over exact fields (QQ, GF(p), GF(p^k)) so that
rank, dimension and vanishing statements are certificates, not floats.
"""

from .fields import QQ, GF, FieldMismatchError, field_from_name
from .correspondence import ANet, classify, random_regular_net

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "GF",
    "FieldMismatchError",
    "field_from_name",
    "ANet",
    "classify",
    "random_regular_net",
    "__version__",
]
