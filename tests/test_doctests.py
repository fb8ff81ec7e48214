import doctest

import pdds.abelian
import pdds.lattice
import pdds.verifier


def test_module_doctests():
    for module in (pdds.lattice, pdds.abelian, pdds.verifier):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
