"""Mutation matrix for the word ring: each defect makes ``qcmt verify`` fail ``algebra-laws``.

One row per defect.  Each row patches one module-level helper of the
packed ring in ``qcmt.algebra`` in-process, then runs ``cli.main(["verify",
...])`` on the default kernel and on the paired kernel of the golden
records, and expects exit 1 with ``algebra-laws`` failed.  A check that
passes a broken engine is a silent hole; see DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import json

import numpy as np
import pytest

from qcmt import algebra
from qcmt.cli import main
from test_golden_outputs import PAIRED

# the unpatched helpers that two mutants wrap
PRODUCTS, GROUPED = algebra._products, algebra._grouped


def _reverse_only(w):
    return tuple(reversed(w))


def _involve_without_reverse(digits, lengths, table):
    return table[digits]


def _without_conjugation(columns):
    return columns


def _right_times_left(base, left, left_lengths, right, right_lengths):
    return PRODUCTS(base, right, right_lengths, left, left_lengths)


def _drop_each_trials_last_term(keys, trials, re, im, tolerance):
    first, re, im = GROUPED(keys, trials, re, im, tolerance)
    emitted = trials[first]
    kept = np.zeros(len(first), dtype=bool)
    kept[:-1] = emitted[1:] == emitted[:-1]
    return first[kept], re[kept], im[kept]


# (helper patched in qcmt.algebra, its replacement)
MUTATIONS = {
    "reverse-only adjoint": ("word_adjoint", _reverse_only),
    "involve-without-reverse adjoint": ("_adjoint_digits", _involve_without_reverse),
    "adjoint without coefficient conjugation": ("_conjugated", _without_conjugation),
    "product concatenated right-left": ("_products", _right_times_left),
    "combine step drops each trial's last term": ("_grouped", _drop_each_trials_last_term),
}
KERNELS = {"default": None, "paired": {"kernel": PAIRED}}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_fails_algebra_laws_on_each_ring_defect(mutation, kernel, monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--out", str(out)]
    if KERNELS[kernel] is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(KERNELS[kernel]))
        argv += ["--config", str(config)]
    assert main(argv) == 0
    monkeypatch.setattr(algebra, *MUTATIONS[mutation])
    assert main(argv) == 1
    failed = {c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]}
    assert "algebra-laws" in failed
