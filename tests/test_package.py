"""The package namespace: each public name is declared once, in its module."""

import trcq_kit
from trcq_kit import (
    bounds,
    convolution,
    functions,
    kernels,
    quadrature,
    report,
    symbols,
    trmap,
    verify,
    weights,
)

LIBRARY_MODULES = (
    bounds, convolution, functions, kernels, quadrature, report, symbols, trmap, verify, weights
)


def test_all_is_the_union_of_the_module_lists():
    expected = ["__version__"] + [name for mod in LIBRARY_MODULES for name in mod.__all__]
    assert trcq_kit.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_module_attribute():
    for mod in LIBRARY_MODULES:
        for name in mod.__all__:
            assert getattr(trcq_kit, name) is getattr(mod, name), f"{mod.__name__}.{name}"
