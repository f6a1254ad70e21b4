"""A check of every kernel that `nullspace` returns, by a routine that
shares no code with `linalg._echelon`:

- A·v = 0 for every basis vector v, by one sparse product over the columns;
- the identity block on the free columns: the free column of v is its last
  non-zero entry, where v is 1, and every other vector of the basis is 0
  there. So the basis is independent, and dim ker A >= len(basis) holds by
  the check itself.

`certified_nullspace()` wraps `nullspace` in every loaded `poissondef.*`
namespace that binds it, so the commands run inside it are checked as they
run, and not run a second time.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from poissondef import linalg


def kernel_faults(columns, basis) -> list:
    """The ways in which `basis` fails to be a reduced basis of vectors in
    the right kernel of the sparse columns {row key: value}."""
    faults = []
    free = []
    for i, v in enumerate(basis):
        if len(v) != len(columns):
            faults.append((i, "length"))
            continue
        product = {}
        for col, x in zip(columns, v):
            if x:
                for key, a in col.items():
                    product[key] = product.get(key, 0) + Fraction(a) * x
        if any(product.values()):
            faults.append((i, "A v != 0"))
        nonzero = [j for j, x in enumerate(v) if x]
        free.append(nonzero[-1] if nonzero else None)
        if not nonzero or v[nonzero[-1]] != 1:
            faults.append((i, "free entry != 1"))
    if free != sorted(set(free)) or None in free:
        faults.append((None, "free columns not increasing"))
    for i, v in enumerate(basis):
        for j, fc in enumerate(free):
            if j != i and fc is not None and fc < len(v) and v[fc]:
                faults.append((i, f"non-zero at the free column of {j}"))
    return faults


@contextmanager
def certified_nullspace():
    """Yield a list that gains (columns, kernel length, faults) for every
    `nullspace` call made inside the block."""
    original = linalg.nullspace
    checked = []

    def certified(columns):
        basis = original(columns)
        checked.append((len(columns), len(basis),
                        kernel_faults(columns, basis)))
        return basis

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if module is not None and name.startswith("poissondef."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, certified)
        yield checked
