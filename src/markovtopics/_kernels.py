"""``_kernels.c``, built once per process, and :func:`bind`, the one kernel
dispatch, which binds a kernel or its Python copy to one argument list.  Each
kernel has a Python copy, which takes the kernel's argument list and runs with
the same bytes where no compiler or loader works: the line-for-line copies
``gibbs._topics_in_python``, ``gibbs._behaviours_in_python`` and
``inference._forward_in_python``, and ``serialize._corpus_in_python``, which
checks a file by the line regex of the grammar that ``parse_corpus`` applies
byte by byte and reads its numbers in numpy passes."""
from functools import cache, partial
from pathlib import Path

import numpy as np

#: ``-ffp-contract=off`` keeps every multiply and add separately rounded, as
#: Python does, so that both copies of a kernel give the same bytes.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: The signature scipy's capsule names for the C routine of
#: ``cython_special.gammaln``: ``gl(x, 0)`` is ``gammaln(x)``.
_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"

#: Stands in a :func:`bind` argument list for scipy's ``gammaln``.
GAMMALN = object()


@cache
def load():
    """``_kernels.c`` built with the C compiler Python names (``cc`` if none)
    into a fresh temporary directory, loaded with ``ctypes``, and the
    directory removed (the loaded mapping survives): once per process, with
    nothing kept between processes.  None where no compiler or loader works."""
    # Imported here: generate, featurize and eval never build the kernels.
    import ctypes
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp, "_kernels.so"))
            subprocess.run([*cc, *_CFLAGS, "-o", path, str(Path(__file__).with_name("_kernels.c")),
                            "-lm"], check=True, capture_output=True, timeout=60)
            lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    # Raw addresses: numpy's ndpointer checks cost more than a small
    # corpus's whole topic step, and the callers check the arrays once.
    # resample_behaviours' fourth argument is the address of a C function.
    lib.resample_topics.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_double] + [ctypes.c_void_p] * 11
    lib.resample_behaviours.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 14
    lib.forward.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7
    lib.resample_topics.restype = lib.resample_behaviours.restype = lib.forward.restype = None
    # A bytes object passes as its own buffer, with no copy.
    lib.parse_corpus.argtypes = [ctypes.c_char_p, ctypes.c_int64] + [ctypes.c_void_p] * 2
    lib.parse_corpus.restype = ctypes.c_int64
    return lib


@cache
def _gammaln_address(capsule):
    """The address ``capsule`` holds where it names the signature of
    ``cython_special.gammaln``'s C routine; None otherwise, and for None."""
    import ctypes

    api, params = ctypes.pythonapi, (ctypes.py_object, ctypes.c_char_p)
    if capsule is None or not ctypes.PYFUNCTYPE(ctypes.c_int, *params)(
            ("PyCapsule_IsValid", api))(capsule, _SIGNATURE):
        return None
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, *params)(
        ("PyCapsule_GetPointer", api))(capsule, _SIGNATURE)


def bind(name, copy, *args):
    """A call with no arguments of the kernel ``name`` on ``args``, each array
    by an address taken once and held, or of its Python copy ``copy`` on
    ``args`` where no kernel builds: the same bytes and the same return value.
    :data:`GAMMALN` becomes the address of scipy's C ``gammaln`` for the
    kernel and ``cython_special.gammaln`` for the copy, which also runs where
    scipy's capsule is missing or names another signature.  The kernels check
    nothing: the caller checks the arrays and keeps them valid."""
    lib, gammaln, native = load(), None, None
    if any(a is GAMMALN for a in args):
        # Imported here: the extension maps about 1 MB that only a Gibbs fit needs.
        from scipy.special import cython_special

        gammaln = cython_special.gammaln
        native = _gammaln_address(cython_special.__pyx_capi__.get("gammaln"))
    if lib is None or (gammaln is not None and native is None):
        return partial(copy, *[gammaln if a is GAMMALN else a for a in args])
    return partial(_call, getattr(lib, name), args, [
        native if a is GAMMALN else a.ctypes.data if isinstance(a, np.ndarray) else a
        for a in args])


def _call(kernel, args, addresses):
    """``kernel(*addresses)``; ``args`` holds the arrays they point into."""
    return kernel(*addresses)
