import inspect
import os
import shutil
import stat
import subprocess
import tempfile

import numpy as np
import pytest

from markovtopics import _kernels, generate, gibbs, inference, serialize

from conftest import c_parameters, run_python, without_kernels


@pytest.mark.parametrize("name,copy", [
    pytest.param("resample_topics", gibbs._topics_in_python, id="resample_topics"),
    pytest.param("resample_behaviours", gibbs._behaviours_in_python, id="resample_behaviours"),
    pytest.param("forward", inference._forward_in_python, id="forward"),
    pytest.param("parse_corpus", serialize._corpus_in_python, id="parse_corpus"),
    pytest.param("parse_events", serialize._events_in_python, id="parse_events"),
    pytest.param("format_corpus", serialize._corpus_text_in_python, id="format_corpus"),
    pytest.param("sample_chain", generate._chain_in_python, id="sample_chain"),
    pytest.param("doc_sums", inference._doc_sums_in_python, id="doc_sums"),
    pytest.param("word_sums", inference._word_sums_in_python, id="word_sums"),
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
    # The InPython run of every Implementations class relies on this switch:
    # without it, it would run the kernels again and compare them with themselves.
    tokens, offsets = np.empty(2, dtype=np.int64), np.empty(2, dtype=np.int64)
    with without_kernels():
        call = _kernels.bind("parse_corpus", lambda *args: "copy", b"1\n", 2, tokens, offsets)
    assert call() == "copy"


#: Loads the kernels in a fresh process and prints how many times it ran the
#: compiler.
_COUNT_BUILDS = """
import subprocess
from markovtopics import _kernels
run, builds = subprocess.run, []
def counted(args, **kwargs):
    builds.extend(["-o"] if "-o" in args else [])
    return run(args, **kwargs)
subprocess.run = counted
assert _kernels.load() is not None
print(len(builds))
"""


#: Loads the kernels in a fresh process and prints how many processes it
#: started.
_COUNT_PROCESSES = """
import subprocess
from markovtopics import _kernels
started = []
class Counted(subprocess.Popen):
    def __init__(self, args, *rest, **kwargs):
        started.append(args)
        super().__init__(args, *rest, **kwargs)
subprocess.Popen = Counted
assert _kernels.load() is not None
print(len(started))
"""


def _builds_in_fresh_process(cache_home):
    """How many times a fresh process that loads the kernels, with
    ``XDG_CACHE_HOME`` at ``cache_home``, runs the compiler."""
    done = run_python(["-c", _COUNT_BUILDS], XDG_CACHE_HOME=str(cache_home))
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


class TestCache:
    """The per-user cache of built kernels, under ``XDG_CACHE_HOME``."""

    @pytest.fixture(autouse=True)
    def _fresh_load(self, kernel, tmp_path, monkeypatch):
        # A build outside the cache goes to a directory of its own, which
        # must be left empty.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        _kernels.load.cache_clear()
        yield
        _kernels.load.cache_clear()
        assert list((tmp_path / "tmp").iterdir()) == []

    @staticmethod
    def _cached(tmp_path):
        return sorted((tmp_path / "home" / "markovtopics").iterdir())

    def test_second_load_compiles_nothing(self, tmp_path):
        assert _builds_in_fresh_process(tmp_path / "home") == 1
        [path] = self._cached(tmp_path)
        assert path.name.startswith("_kernels-") and len(path.name) == len("_kernels-.so") + 64
        for p in (path.parent, path):
            assert stat.S_IMODE(p.stat().st_mode) == 0o700
        assert _builds_in_fresh_process(tmp_path / "home") == 0
        assert self._cached(tmp_path) == [path]

    @pytest.mark.parametrize("spoil", ["truncate", "group-writable"])
    def test_corrupt_or_untrusted_file_is_rebuilt(self, tmp_path, spoil):
        assert _builds_in_fresh_process(tmp_path / "home") == 1
        [path] = self._cached(tmp_path)
        size = path.stat().st_size
        if spoil == "truncate":
            path.write_bytes(path.read_bytes()[:size // 2])
        else:
            path.chmod(0o720)
        assert _builds_in_fresh_process(tmp_path / "home") == 1
        assert self._cached(tmp_path) == [path]
        assert path.stat().st_size == size and stat.S_IMODE(path.stat().st_mode) == 0o700

    def test_changed_source_gets_a_new_key(self, tmp_path, monkeypatch):
        assert _kernels.load() is not None
        [first] = self._cached(tmp_path)
        changed = tmp_path / "_kernels.c"
        changed.write_text(_kernels._SOURCE.read_text() + "/* changed */\n")
        monkeypatch.setattr(_kernels, "_SOURCE", changed)
        _kernels.load.cache_clear()
        assert _kernels.load() is not None
        # The new build removes the old one.
        [second] = self._cached(tmp_path)
        assert second != first

    def test_build_removes_only_the_builds_it_would_load(self, tmp_path):
        # Another key's build that the loader would trust goes; a file of
        # another name, or one that group or others can write, stays.
        directory = tmp_path / "home" / "markovtopics"
        directory.mkdir(parents=True, mode=0o700)
        stale, shared = (directory / f"_kernels-{c * 64}.so" for c in "ab")
        other = directory / "_kernels-a.so"
        for path, mode in ((stale, 0o700), (shared, 0o720), (other, 0o700)):
            path.write_bytes(b"old")
            path.chmod(mode)
        assert _kernels.load() is not None
        [built] = set(self._cached(tmp_path)) - {shared, other}
        assert built.name.startswith("_kernels-") and not stale.exists()

    def test_warm_load_in_a_fresh_process_starts_no_process(self, tmp_path):
        # The key names the compiler by its binary, not by running it.
        run = run_python(["-c", _COUNT_PROCESSES], XDG_CACHE_HOME=str(tmp_path / "home"))
        assert run.returncode == 0 and int(run.stdout) >= 1, run.stderr
        run = run_python(["-c", _COUNT_PROCESSES], XDG_CACHE_HOME=str(tmp_path / "home"))
        assert run.returncode == 0 and int(run.stdout) == 0, run.stderr

    def test_compiler_that_resolves_to_no_file_is_keyed_by_its_version(self, monkeypatch):
        # A first word that is no file on PATH (a shell alias, say) cannot
        # be named by its binary; its --version output names it.
        runs, run = [], subprocess.run

        def recorded(args, **kwargs):
            runs.append(args)
            return run(args, **kwargs)

        monkeypatch.setattr(subprocess, "run", recorded)
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert _kernels.load() is not None
        assert sum("--version" in args for args in runs) == 1

    def test_unusable_cache_path_falls_back_to_a_temporary_build(self, tmp_path):
        # Permission bits do not stop root, but no one can make a directory
        # under a regular file.
        (tmp_path / "home").write_text("not a directory")
        assert _kernels.load() is not None
        assert (tmp_path / "home").read_text() == "not a directory"

    def test_group_writable_cache_directory_is_not_trusted(self, tmp_path):
        directory = tmp_path / "home" / "markovtopics"
        directory.mkdir(parents=True)
        directory.chmod(0o770)
        assert _kernels.load() is not None
        assert self._cached(tmp_path) == []

    def test_cache_of_another_user_is_not_trusted(self, tmp_path, monkeypatch, compiler_runs):
        # The cached build is left alone, and a temporary one is loaded.
        assert _kernels.load() is not None and len(compiler_runs) == 1
        [path] = self._cached(tmp_path)
        built, uid = path.stat().st_mtime_ns, os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        _kernels.load.cache_clear()
        assert _kernels.load() is not None and len(compiler_runs) == 2
        assert self._cached(tmp_path) == [path] and path.stat().st_mtime_ns == built
