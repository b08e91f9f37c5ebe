"""The package's public names: each module's __all__, re-exported by rcsp."""

import pytest

import rcsp
from rcsp import bp, certificates, ensemble, firstmoment, interp, thresholds

MODULES = (bp, certificates, ensemble, firstmoment, interp, thresholds)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_reexported(module):
    for name in module.__all__:
        assert getattr(rcsp, name) is getattr(module, name)


def test_package_all_is_the_module_lists():
    assert rcsp.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]
    assert len(set(rcsp.__all__)) == len(rcsp.__all__)
