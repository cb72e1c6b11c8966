"""Mutation matrix for ``qcmt verify``: each defect patched into an engine, and what it fails.

One row per defect.  Each row patches one helper in-process, then runs
``cli.main(["verify", ...])``.  The word-ring rows patch the packed ring in
``qcmt.algebra`` and expect exit 1 with ``algebra-laws`` failed, on the
default kernel and on the paired kernel of the golden records.  The
moment-route rows patch the Gram fill or the Wick engine and give each
kernel of the golden records its own expectation: the exact set of failed
checks, or none where the defect is equivalent on that kernel, with the
reason.  A check that passes a broken engine is a silent hole; see DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import json

import numpy as np
import pytest

from qcmt import algebra, gns
from qcmt.cli import main
from qcmt.gaussian import GaussianKernel
from test_golden_outputs import FIELD, GIBBS, HERMITIAN, PAIRED, REAL

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
# the kernel configs of the golden records; None is the default kernel
KERNELS = {"default": None, "real": REAL, "hermitian": HERMITIAN, "paired": PAIRED,
           "gibbs": GIBBS, "field": FIELD}


def _verify_argv(kernel, tmp_path) -> tuple:
    """The ``verify`` argument vector for a kernel config (None: the default) and its report."""
    out = tmp_path / "report.json"
    argv = ["verify", "--out", str(out)]
    if kernel is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kernel": kernel}))
        argv += ["--config", str(config)]
    return argv, out


def _failed(out) -> set:
    return {c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]}


@pytest.mark.parametrize("kernel", ["default", "paired"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_fails_algebra_laws_on_each_ring_defect(mutation, kernel, monkeypatch, tmp_path):
    argv, out = _verify_argv(KERNELS[kernel], tmp_path)
    assert main(argv) == 0
    monkeypatch.setattr(algebra, *MUTATIONS[mutation])
    assert main(argv) == 1
    assert "algebra-laws" in _failed(out)


# ---------------------------------------------------------------- the moment route

MOMENT = GaussianKernel.moment


def _codes_by_tag_only(self, w):
    """Both halves of each letter coded by its tag: the contraction (x, y) in place of (x^c, y)."""
    position, n = self._position, len(self._indices)
    return tuple([n * position[ix.tag] + position[ix.tag] for ix in w])


def _odd_words_moment_one(self, codes):
    return 1 + 0j if len(codes) % 2 else MOMENT(self, codes)


GRAM_CHECKS = {"wick-oracle", "gram-psd", "extended-positivity"}
# Over self-conjugate indices w^dagger is w reversed, and a real symmetric kernel gives
# every word the hafnian of a symmetric matrix, which no reordering changes.  The
# Gibbs kernel is real and diagonal; the field packets carry no wavevector, so that
# kernel is real to round-off (1e-17).
ORDER_FREE = "moments do not depend on word order on a real symmetric kernel"
SELF_CONJUGATE = "every index is its own partner, so x^c = x"
# (owner, attribute, replacement, {kernel: failed checks, or the reason it is equivalent})
MOMENT_MUTATIONS = {
    "Gram filled without the adjoint": (
        gns, "word_adjoint", lambda w: w,
        {"default": ORDER_FREE, "real": ORDER_FREE, "gibbs": ORDER_FREE, "field": ORDER_FREE,
         "hermitian": GRAM_CHECKS, "paired": GRAM_CHECKS}),
    "contraction (x, y) in place of (x^c, y)": (
        GaussianKernel, "_encode", _codes_by_tag_only,
        {**dict.fromkeys(["default", "real", "hermitian", "gibbs", "field"], SELF_CONJUGATE),
         "paired": GRAM_CHECKS}),
    "odd code words given moment 1": (
        GaussianKernel, "moment", _odd_words_moment_one, dict.fromkeys(KERNELS, GRAM_CHECKS)),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("mutation", sorted(MOMENT_MUTATIONS))
def test_verify_on_each_moment_route_defect(mutation, kernel, monkeypatch, tmp_path):
    owner, attribute, replacement, expected = MOMENT_MUTATIONS[mutation]
    argv, out = _verify_argv(KERNELS[kernel], tmp_path)
    monkeypatch.setattr(owner, attribute, replacement)
    failed = expected[kernel] if isinstance(expected[kernel], set) else set()
    assert main(argv) == (1 if failed else 0)
    assert _failed(out) == failed
