import inspect

import numpy as np
import pytest

from markovtopics import _kernels, gibbs, inference, serialize

from conftest import c_parameters, without_kernels


@pytest.mark.parametrize("name,copy", [
    pytest.param("resample_topics", gibbs._topics_in_python, id="resample_topics"),
    pytest.param("resample_behaviours", gibbs._behaviours_in_python, id="resample_behaviours"),
    pytest.param("forward", inference._forward_in_python, id="forward"),
    pytest.param("parse_corpus", serialize._corpus_in_python, id="parse_corpus"),
])
def test_kernel_and_python_copy_take_one_argument_list(name, copy):
    # An argument added to the C function, its argument types or its Python
    # copy only fails here.
    names = c_parameters(name)
    assert names == list(inspect.signature(copy).parameters)
    lib = _kernels.load()
    if lib is not None:
        assert len(names) == len(getattr(lib, name).argtypes)


def test_without_kernels_binds_the_python_copy():
    # Every class with compiled = False relies on this switch: without it, it
    # would run the kernels again and compare them with themselves.
    tokens, offsets = np.empty(2, dtype=np.int64), np.empty(2, dtype=np.int64)
    with without_kernels():
        call = _kernels.bind("parse_corpus", lambda *args: "copy", b"1\n", 2, tokens, offsets)
    assert call() == "copy"
