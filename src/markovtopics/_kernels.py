"""``_kernels.c``, built once per process.  Each kernel has a Python copy,
which runs with the same bytes where no compiler or loader works: the
line-for-line copies ``gibbs._topics_in_python``,
``gibbs._behaviours_in_python`` and ``inference._forward_in_python``, and
``serialize._corpus_in_python``, the numpy corpus reader, whose grammar
``parse_corpus`` applies in one pass."""
from functools import cache
from pathlib import Path

#: ``-ffp-contract=off`` keeps every multiply and add separately rounded, as
#: Python does, so that both copies of a kernel give the same bytes.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


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
    # corpus's whole topic step, and the callers make the same checks.
    # resample_behaviours' fourth argument is the address of a C function.
    lib.resample_topics.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_double] + [ctypes.c_void_p] * 11
    lib.resample_behaviours.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 14
    lib.forward.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7
    lib.resample_topics.restype = lib.resample_behaviours.restype = lib.forward.restype = None
    # A bytes object passes as its own buffer, with no copy.
    lib.parse_corpus.argtypes = [ctypes.c_char_p, ctypes.c_int64] + [ctypes.c_void_p] * 2
    lib.parse_corpus.restype = ctypes.c_int64
    return lib
