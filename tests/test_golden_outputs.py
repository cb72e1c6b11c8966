"""Exit code and stdout bytes of a canonical set of CLI runs against a record.

Moments and witness values are pure Python arithmetic on the kernel
entries, so their bytes are compared on every platform.  Gram spectra,
verify reports and boost scans go through LAPACK and numpy reductions, so
their bytes are compared only on the numpy and BLAS/LAPACK build they were
recorded with, and skipped elsewhere.  Rewrite the record with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints each run whose [exit code, hash] changed and the build it
recorded on.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest

from qcmt.cli import main

RECORD = pathlib.Path(__file__).with_name("golden_outputs.json")

REAL = {"type": "matrix", "indices": [1, 2, 3],
        "matrix": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]}
HERMITIAN = {"type": "matrix", "indices": [1, 2],
             "matrix": [[1.0, [0.3, 0.4]], [[0.3, -0.4], 0.8]]}
PAIRED = {"type": "matrix", "indices": ["a", "b", "c"], "involution": [["a", "b"]],
          "matrix": [[1.0, [0.0, 0.3], 0.2], [[0.0, -0.3], 1.0, [0.1, -0.2]],
                     [0.2, [0.1, 0.2], 0.9]]}
GIBBS = {"type": "gibbs-oscillator", "mass": 1.5, "frequency": 0.7, "temperature": 2.0}
FIELD = {"type": "field", "mass": 1.0, "beta": 1.0,
         "packets": [{"center": [0.0, 0.0]}, {"center": [0.0, 0.5]}]}
LARGE_SCALE_GRAM = {
    "kernel": {"type": "matrix", "indices": [1, 2],
               "matrix": [[[6.314561423782434, -0.0], [-4.282069796748778, 0.0]],
                          [[-4.282069796748778, -0.0], [4.16617378131004, -0.0]]]},
    "degree": 5,
    "tolerance": 1e-08,
}


def _words(a, b, c):
    """Short, V-split and length-12 words over three letters."""
    return [[], [a], [a, b], [a, "V", b], ["V", a, b], [a, b, "V"], [a, b, c, a],
            [a, "V", "V", b, c, "V", a], [a, b, c, a, b, c, a, b, c, a, b, c],
            [a, a, b, "V", b, c, c, "V", a, b, c, a], [b] * 12]


PORTABLE = {
    "moments-real": ("moments", {"kernel": REAL, "words": _words(1, 2, 3) + [[1] * 14]}),
    "moments-hermitian": ("moments", {"kernel": HERMITIAN, "words": _words(1, 2, 2)}),
    "moments-paired": ("moments", {"kernel": PAIRED, "words": _words("a", "b", "c")}),
    "moments-gibbs": ("moments", {"kernel": GIBBS, "words": _words("q", "p", "q")}),
    "witness-real": ("witness", {"kernel": REAL, "pair": [1, 2]}),
    "witness-hermitian": ("witness", {"kernel": HERMITIAN, "pair": [2, 1]}),
    "witness-paired": ("witness", {"kernel": PAIRED, "pair": ["a", "b"]}),
    "witness-gibbs": ("witness", {"kernel": GIBBS, "pair": ["q", "p"]}),
}
BUILD_BOUND = {
    "gram-paired-degree-3": ("gram", {"kernel": PAIRED, "degree": 3}),
    "gram-large-scale": ("gram", LARGE_SCALE_GRAM),
    "verify-default": ("verify", None),
    "verify-thermal-field": ("verify", {"kernel": FIELD}),
    "verify-paired-seed-17": ("verify", {"kernel": PAIRED, "seed": 17}),
    "verify-gibbs-seed-5": ("verify", {"kernel": GIBBS, "seed": 5}),
    "boost-scan": ("boost-scan", {"kernel": FIELD, "rapidities": [0.0, 0.6, -1.2]}),
}


def run(mode: str, config, directory: pathlib.Path) -> list:
    """[exit code, SHA-256 of stdout] of one CLI run."""
    argv = [mode]
    if config is not None:
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]


def numpy_build():
    """numpy version and BLAS/LAPACK names, or None where numpy cannot report them."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {"numpy": np.__version__, "blas": deps["blas"]["name"],
                "lapack": deps["lapack"]["name"]}
    except (TypeError, KeyError):
        return None


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name", sorted(PORTABLE))
def test_portable_output_bytes(tmp_path, record, name):
    assert run(*PORTABLE[name], tmp_path) == record["portable"][name]


@pytest.mark.parametrize("name", sorted(BUILD_BOUND))
def test_build_bound_output_bytes(tmp_path, record, name):
    build = numpy_build()
    if build != record["build"]:
        pytest.skip(f"bytes recorded on {record['build']}, this is {build}")
    assert run(*BUILD_BOUND[name], tmp_path) == record["build_bound"][name]


if __name__ == "__main__":
    previous = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        record = {
            "build": numpy_build(),
            "portable": {name: run(*case, directory) for name, case in PORTABLE.items()},
            "build_bound": {name: run(*case, directory) for name, case in BUILD_BOUND.items()},
        }
    for group in ("portable", "build_bound"):
        for name, result in record[group].items():
            before = previous.get(group, {}).get(name)
            if before != result:
                print(f"{name}: {before} -> {result}, on {record['build']}")
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
