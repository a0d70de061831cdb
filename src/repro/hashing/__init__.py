"""k-wise independent hash families (paper Section 2.3).

Public surface:

* :func:`make_family` / :class:`KWiseHashFamily` -- polynomial families over
  a prime field, the workhorse of every derandomization step.
* :func:`make_product_family` / :class:`ProductHashFamily` -- wide-range
  values for (near) tie-free Luby selection.
* :func:`make_color_family` -- the small-seed family ``H*`` of Section 5,
  a pairwise :class:`KWiseHashFamily` over distance-2 colors.
* :func:`next_prime`, :func:`is_prime` -- field-size selection.
"""

from .primes import is_prime, next_prime
from .kwise import KWiseHashFamily, make_family, MAX_FIELD
from .families import ProductHashFamily, make_color_family, make_product_family

__all__ = [
    "KWiseHashFamily",
    "MAX_FIELD",
    "ProductHashFamily",
    "is_prime",
    "make_color_family",
    "make_family",
    "make_product_family",
    "next_prime",
]
