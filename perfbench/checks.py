"""Correctness gate: every command's exit code and output, checked after timing.

Each check recomputes what it can along a route independent of the code
path under measurement, chiefly the generating-series oracle
``moment_from_generating_series`` in place of the Wick matching sum.
A check returns ``None`` when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math

from qcmt.algebra import word_adjoint
from qcmt.cli import EXIT_OK, build_kernel
from qcmt.gaussian import moment_from_generating_series
from qcmt.gns import build_basis

from workloads import Command

# Relative agreement demanded between the CLI and the oracle.  Both sum the
# same terms in different orders; length-12 moments differ by ~1e-10.
ORACLE_RTOL = 1e-8
# Poincare invariance of the vacuum kernel, as the verify suite demands it.
VACUUM_DEVIATION_MAX = 1e-6


def _close(value: complex, expected: complex) -> bool:
    return abs(value - expected) <= ORACLE_RTOL * max(1.0, abs(expected))


def _tag_map(kernel) -> dict:
    return {ix.tag: ix for ix in kernel.indices}


def check_verify(cmd: Command, out: str) -> str | None:
    report = json.loads(out)
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return f"verify did not pass: {failed}"
    names = [c["name"] for c in report["checks"]]
    if names != cmd.expect["checks"]:
        return f"verify ran checks {names}, expected {cmd.expect['checks']}"
    seed = cmd.seed if cmd.seed is not None else cmd.config.get("seed", 0)
    if report.get("seed") != seed:
        return f"verify reports seed {report.get('seed')}, expected {seed}"
    return None


def check_gram(cmd: Command, out: str) -> str | None:
    report = json.loads(out)
    kernel, _, _ = build_kernel(cmd.config)
    degree = cmd.config["degree"]
    n = len(kernel.indices)
    dimension = sum(n**k for k in range(degree + 1))
    if report["dimension"] != dimension:
        return f"gram dimension {report['dimension']}, expected {dimension}"
    eigenvalues = report["eigenvalues"]
    tolerance = cmd.config["tolerance"]
    if len(eigenvalues) != dimension or min(eigenvalues) < -tolerance:
        return f"gram spectrum has {len(eigenvalues)} values, minimum {min(eigenvalues):.3e}"
    # trace of the Gram matrix: sum_a rho(w_a^dagger w_a) along the oracle
    trace = sum(
        moment_from_generating_series(kernel, word_adjoint(w) + w)
        for w in build_basis(kernel.indices, degree).words
    )
    if not _close(complex(math.fsum(eigenvalues)), trace):
        return f"gram eigenvalues sum to {math.fsum(eigenvalues)!r}, oracle trace is {trace!r}"
    return None


def check_moments(cmd: Command, out: str) -> str | None:
    kernel, _, _ = build_kernel(cmd.config)
    tags = _tag_map(kernel)
    lines = out.splitlines()
    words = cmd.config["words"]
    if lines[0] != "word,re,im" or len(lines) != len(words) + 1:
        return f"moments table has {len(lines)} lines for {len(words)} words"
    for raw, line in zip(words, lines[1:]):
        segments = [[]]
        for ref in raw:
            if ref == "V":
                segments.append([])
            else:
                segments[-1].append(tags[ref])
        expected = 1 + 0j
        for segment in segments:
            expected *= moment_from_generating_series(kernel, tuple(segment))
        label, re_part, im_part = line.split(",")
        value = complex(float(re_part), float(im_part))
        if not _close(value, expected):
            return f"moment {label} = {value!r}, oracle gives {expected!r}"
    return None


def check_witness(cmd: Command, out: str) -> str | None:
    payload = json.loads(out)
    kernel, _, _ = build_kernel(cmd.config)
    tags = _tag_map(kernel)
    i, j = (tags[t] for t in cmd.config["pair"])
    in_front = moment_from_generating_series(kernel, (i, j))
    between = complex(*payload["projector_between"])
    got_in_front = complex(*payload["projector_in_front"])
    # rho(M_i V M_j) = rho(M_i) rho(M_j) = 0: odd Gaussian moments vanish
    if between != 0 or not _close(got_in_front, in_front):
        return f"witness values {between!r}, {got_in_front!r}; oracle gives 0, {in_front!r}"
    if payload["passed"] is not True or not _close(complex(payload["gap"]), complex(abs(in_front))):
        return f"witness gap {payload['gap']!r} or pass flag {payload['passed']!r} is wrong"
    return None


def check_boost_scan(cmd: Command, out: str) -> str | None:
    lines = out.splitlines()
    rapidities = cmd.config["rapidities"]
    if lines[0] != "rapidity,vacuum_deviation,thermal_deviation" or len(lines) != len(rapidities) + 1:
        return f"boost-scan table has {len(lines)} lines for {len(rapidities)} rapidities"
    for chi, line in zip(rapidities, lines[1:]):
        fields = line.split(",")
        if float(fields[0]) != chi:
            return f"boost-scan row {line!r} does not match rapidity {chi!r}"
        vacuum_dev, thermal_dev = float(fields[1]), float(fields[2])
        if not vacuum_dev <= VACUUM_DEVIATION_MAX or not math.isfinite(thermal_dev):
            return f"boost-scan row {line!r} breaks Poincare invariance of the vacuum"
    return None


def vacuum_violations(cmd: Command, out: str) -> int:
    """Rapidities of a boost scan whose row is missing, refused by the
    quadrature (``ERROR``) or over the gate's vacuum-deviation limit."""
    within = 0
    for line in out.splitlines()[1:]:
        try:
            within += float(line.split(",")[1]) <= VACUUM_DEVIATION_MAX
        except (ValueError, IndexError):
            pass
    return len(cmd.config["rapidities"]) - within


CHECKS = {
    "verify": check_verify,
    "gram": check_gram,
    "moments": check_moments,
    "witness": check_witness,
    "boost-scan": check_boost_scan,
}


def check(cmd: Command, status: int, out: str) -> str | None:
    """Why the command's result is wrong, or ``None`` when it is right."""
    if status != EXIT_OK:
        return f"exit code {status}, expected {EXIT_OK}"
    try:
        return CHECKS[cmd.mode](cmd, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {cmd.mode} output: {exc!r}"
