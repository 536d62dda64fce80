"""Start-up behaviour, each check in a fresh interpreter: ``import labelforge``
loads no numpy, and importing ``labelforge.cli`` runs numpy's BLAS on one
thread unless the user chose a count, leaving ``os.environ`` as it was."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.25 has no mode argument
        return ""


needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads"
)
needs_openblas = pytest.mark.skipif(
    "openblas" not in _blas_name().lower(), reason="numpy is not built with OpenBLAS"
)

# Run before each check's code. numpy loads on the first call of
# blas_threads; after a 600 x 600 mat-mat OpenBLAS has started its threads.
PRELUDE = """
import json, os

def blas_threads():
    import numpy as np
    a = np.ones((600, 600))
    a @ a
    return len(os.listdir("/proc/self/task"))
"""


def run_python(code: str, **env_vars: str) -> dict:
    """Run ``code`` in a new interpreter with no BLAS thread variable set
    beyond ``env_vars``; returns the JSON object it prints."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_is_lazy():
    out = run_python("""
        import sys
        import labelforge
        loaded = sorted(name for name in sys.modules
                        if name == "numpy" or name.startswith("labelforge."))
        listed = set(dir(labelforge))
        unlisted = [name for name in labelforge.__all__ if name not in listed]
        resolved = [name for name in labelforge.__all__ if hasattr(labelforge, name)]
        import labelforge.train
        print(json.dumps({
            "loaded": loaded,
            "unlisted": unlisted,
            "unresolved": sorted(set(labelforge.__all__) - set(resolved)),
            "same_object": labelforge.fit is labelforge.train.fit,
            "unknown_raises": not hasattr(labelforge, "no_such_name"),
        }))
    """)
    assert out == {"loaded": [], "unlisted": [], "unresolved": [], "same_object": True,
                   "unknown_raises": True}


@needs_task_list
@needs_openblas
@pytest.mark.parametrize("user_env, count", [
    ({}, 1),  # no count chosen: one thread
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 1),
], ids=["default", "openblas-2", "omp-1"])
def test_cli_import_sets_blas_threads_and_restores_environ(user_env, count):
    if count > (os.cpu_count() or 1):
        pytest.skip(f"needs {count} CPUs")
    out = run_python("""
        before = dict(os.environ)
        import labelforge.cli
        environ_kept = dict(os.environ) == before
        print(json.dumps({"environ_kept": environ_kept, "tasks": blas_threads()}))
    """, **user_env)
    assert out == {"environ_kept": True, "tasks": count}


@needs_task_list
def test_cli_import_after_numpy_changes_nothing():
    out = run_python("""
        tasks_before, before = blas_threads(), dict(os.environ)
        # os.environ writes go through os.putenv and os.unsetenv
        touched = []
        putenv, unsetenv = os.putenv, os.unsetenv
        os.putenv = lambda key, value: (touched.append(key), putenv(key, value))[1]
        os.unsetenv = lambda key: (touched.append(key), unsetenv(key))[1]
        import labelforge.cli
        os.putenv, os.unsetenv = putenv, unsetenv
        print(json.dumps({
            "environ_kept": dict(os.environ) == before,
            "touched": [str(key) for key in touched],
            "tasks": [tasks_before, blas_threads()],
        }))
    """)
    assert out["environ_kept"] and out["touched"] == []
    assert out["tasks"][0] == out["tasks"][1]
