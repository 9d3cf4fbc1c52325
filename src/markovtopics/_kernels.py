"""``_kernels.c``, built once per machine into a per-user cache and loaded
once per process, and :func:`bind`, the one kernel dispatch, which binds a
kernel or its Python copy to one argument list.  Each kernel has a Python
copy, which takes the kernel's argument list and runs with the same bytes
where no compiler or loader works: the line-for-line copies
``gibbs._topics_in_python``, ``gibbs._behaviours_in_python`` and
``inference._forward_in_python``; ``serialize._corpus_in_python`` and
``serialize._events_in_python``, which check a file by the line regex of the
grammar that ``parse_corpus`` or ``parse_events`` applies byte by byte and
read its numbers in numpy passes; ``serialize._corpus_text_in_python``,
which joins the text that ``format_corpus`` writes; and
``generate._chain_in_python``, which draws with ``bisect_right`` and
``searchsorted`` the indices that ``sample_chain`` finds by guide-table
search.

The cache is ``$XDG_CACHE_HOME/markovtopics`` (``~/.cache/markovtopics``
where that is unset or not absolute).  A build's file name holds the SHA-256
of ``_kernels.c``, the compiler command, the compiler's ``--version`` output,
:data:`_CFLAGS` and ``sysconfig.get_platform()``, so a build is never reused
for another source, compiler or platform.  The directory is made with mode
0700; a miss compiles into a ``mkstemp`` file in it, appends the SHA-256 of
the library's bytes and moves it into place with ``os.replace``, so a
process never loads a half-written build.  A cached directory or file that
the current user does not own, or that group or others can write, is never
loaded, and a file whose last 32 bytes are not the SHA-256 of the rest is
built again.  Any other failure of the cache falls back to a build in a
temporary directory that is removed once the library is loaded, and where
that fails too, to the Python copies."""
import os
from functools import cache, partial
from pathlib import Path

import numpy as np

#: ``-ffp-contract=off`` keeps every multiply and add separately rounded, as
#: Python does, so that both copies of a kernel give the same bytes.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
_SOURCE = Path(__file__).with_name("_kernels.c")

#: The signature scipy's capsule names for the C routine of
#: ``cython_special.gammaln``: ``gl(x, 0)`` is ``gammaln(x)``.
_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"

#: Stands in a :func:`bind` argument list for scipy's ``gammaln``.
GAMMALN = object()


@cache
def load():
    """``_kernels.c`` built with the C compiler Python names (``cc`` if none),
    from the per-user cache, built there on a miss, or else in a temporary
    directory, and loaded with ``ctypes``: once per process.  None where no
    compiler or loader works."""
    # Imported here: eval never loads the kernels.
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    # AttributeError: a library without one of the kernels.
    failed = (OSError, subprocess.SubprocessError, AttributeError)
    try:
        return _cached(cc)
    except (*failed, RuntimeError):  # RuntimeError: no home directory
        pass
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return _declared(_compile(cc, tmp))
    except failed:
        return None


def _cached(cc):
    """The kernels loaded from the cache (see the module docstring), built
    into it where the file is missing, corrupt or not trusted.  Raises where
    the cache cannot be used."""
    import hashlib
    import subprocess
    import sysconfig

    version = subprocess.run([*cc, "--version"], check=True, capture_output=True,
                             timeout=60).stdout
    key = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), "\0".join(cc).encode(), version,
                 "\0".join(_CFLAGS).encode(), sysconfig.get_platform().encode()):
        key.update(len(part).to_bytes(8, "little") + part)
    root = os.environ.get("XDG_CACHE_HOME", "")
    directory = Path(root if os.path.isabs(root) else Path.home() / ".cache", "markovtopics")
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not _private(directory):
        raise PermissionError(f"{directory} is not the current user's alone")
    path = directory / f"_kernels-{key.hexdigest()}.so"
    if not (_private(path) and _sealed(path)):
        os.replace(_compile(cc, directory), path)
    return _declared(str(path))


def _private(path):
    """Whether ``path`` exists, the current user owns it and neither group
    nor others can write to it."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _sealed(path):
    """Whether the file at ``path`` ends in the SHA-256 of its other bytes,
    as :func:`_compile` seals every build: the loader would map a
    truncated library past its end, and the process would die of SIGBUS."""
    import hashlib

    data = Path(path).read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


def _compile(cc, directory):
    """The path of a new file in ``directory`` that holds ``_kernels.c``
    built by ``cc``, with mode 0700, and after the library the SHA-256 of its
    bytes, which the loader ignores.  The file is removed where the build
    fails."""
    import hashlib
    import subprocess
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([*cc, *_CFLAGS, "-o", path, str(_SOURCE), "-lm"], check=True,
                       capture_output=True, timeout=60)
        digest = hashlib.sha256(Path(path).read_bytes()).digest()
        with open(path, "ab") as f:
            f.write(digest)
        os.chmod(path, 0o700)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    return path


def _declared(path):
    """The library at ``path``, loaded with every kernel's argument and
    return types declared."""
    import ctypes

    lib = ctypes.CDLL(path)
    # Raw addresses: numpy's ndpointer checks cost more than a small
    # corpus's whole topic step, and the callers check the arrays once.
    # resample_behaviours' fourth argument is the address of a C function.
    int64, address = ctypes.c_int64, ctypes.c_void_p
    lib.resample_topics.argtypes = [int64] * 3 + [ctypes.c_double] + [address] * 11
    lib.resample_behaviours.argtypes = [int64] * 3 + [address] * 14
    lib.forward.argtypes = [int64] * 3 + [address] * 7
    lib.sample_chain.argtypes = [int64] * 3 + [address] * 10
    lib.resample_topics.restype = lib.resample_behaviours.restype = None
    lib.forward.restype = lib.sample_chain.restype = None
    # A bytes object passes as its own buffer, with no copy.
    lib.parse_corpus.argtypes = [ctypes.c_char_p, int64] + [address] * 2
    lib.parse_events.argtypes = [ctypes.c_char_p, int64] + [address] * 4
    lib.format_corpus.argtypes = [int64] + [address] * 3
    lib.parse_corpus.restype = lib.parse_events.restype = lib.format_corpus.restype = int64
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
