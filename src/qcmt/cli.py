"""Config-driven command line: verification suites and experiment tables.

Commands: ``verify``, ``moments``, ``gram``, ``boost-scan``, ``witness``.
A single JSON document configures each run; CSV output uses '.' decimals
and no locale so identical runs are byte-identical.  Exit codes: 0 all
checks pass, 1 a check failed, 2 configuration error, 3 numerical failure.
Set QCMT_LOG to a level name for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

from numpy.linalg import LinAlgError

from .algebra import Index
from .fields import FieldKernelSpec, QuadratureError, Wavepacket, boost_deviation, kernel_as_gaussian, packet_family, packet_index, thermal_kernel, vacuum_kernel
from .gaussian import MATCHING_CAP, GaussianKernel
from .gns import build_basis, gram
from .koopman import gibbs_oscillator_kernel
from .vacuum import commutation_witness, extended_word_expect
from .verify import WICK_ORACLE_LENGTH, run_verify

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Each mode's fields: those it requires, then the others it reads.  Every
# mode also reads "mode" and "out"; --seed and --tolerance are accepted
# where their field is read.
FIELDS = {
    "verify": (set(), {"kernel", "seed", "tolerance", "pair", "separations"}),
    "moments": ({"kernel", "words"}, set()),
    "gram": ({"kernel"}, {"tolerance", "degree"}),
    "boost-scan": ({"kernel", "rapidities"}, {"pair"}),
    "witness": ({"kernel", "pair"}, {"tolerance"}),
}

KERNEL_FIELDS = {
    "matrix": {"type", "indices", "matrix", "involution"},
    "gibbs-oscillator": {"type", "mass", "frequency", "temperature"},
    "field": {"type", "mass", "hbar", "beta", "rest_frame", "packets"},
}
PACKET_FIELDS = {"amplitude", "center", "width", "wavevector"}

# Most words a run may build over n indices to length d, sum_k n^k for k <= d:
# gram's basis at its degree, and verify's Wick-oracle words to length 4,
# which include its degree-2 Gram basis.  A field kernel has one index per
# distinct packet and conjugate.  Near the cap, gram on 44 indices at degree
# 2 (1,981 words) takes about 12 s and 270 MB on a 2-core VM; verify takes 6
# indices (1,555 words).
BASIS_CAP = 2000

DEFAULT_VERIFY_CONFIG = {
    "kernel": {
        "type": "matrix",
        "indices": [1, 2, 3],
        "matrix": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]],
    },
    "seed": 0,
    "tolerance": 1e-10,
}


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offender."""


def _float_value(raw, where: str) -> float:
    """A finite JSON number; booleans, NaN, infinities and overflowing integers are refused."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ConfigError(f"field '{where}' must be a number")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"field '{where}' must be finite, not {raw!r}")
    return value


def _float_pair(raw, where: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"field '{where}' must be a pair of numbers")
    return (_float_value(raw[0], where), _float_value(raw[1], where))


def _complex_value(raw, where: str) -> complex:
    """A finite number, or a finite [re, im] pair."""
    if isinstance(raw, list) and len(raw) == 2:
        return complex(*_float_pair(raw, where))
    return complex(_float_value(raw, where))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's keys and values; a repeated key is refused, at any depth."""
    config = {}
    for key, value in pairs:
        if key in config:
            raise ConfigError(f"field '{key}' is given twice")
        config[key] = value
    return config


def load_config(path: str | None, mode: str) -> dict:
    if path is None:
        if mode == "verify":
            return json.loads(json.dumps(DEFAULT_VERIFY_CONFIG))
        raise ConfigError(f"mode '{mode}' requires --config")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # JSON is UTF-8, and a nesting too deep for the parser is malformed too
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _float_list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"field '{where}' must be a list of numbers")
    return [_float_value(value, f"{where}[{pos}]") for pos, value in enumerate(raw)]


def parse_kernel(config: dict):
    """The config's kernel as ``(kernel, spec, packets)``, checked in one walk.

    No quadrature runs here: a field kernel comes back as its spec and
    packets with kernel None, a matrix or Gibbs kernel built.
    """
    raw = config.get("kernel", DEFAULT_VERIFY_CONFIG["kernel"])
    if not isinstance(raw, dict):
        raise ConfigError("field 'kernel' must be an object")
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in KERNEL_FIELDS:
        raise ConfigError(f"field 'kernel.type' must be one of {sorted(KERNEL_FIELDS)}")
    for key in raw:
        if key not in KERNEL_FIELDS[kind]:
            raise ConfigError(f"unknown field 'kernel.{key}' for kernel type '{kind}'")
    if kind == "matrix":
        tags, rows, involution = raw.get("indices"), raw.get("matrix"), raw.get("involution", [])
        if not isinstance(tags, list) or not isinstance(rows, list):
            raise ConfigError("matrix kernels need lists 'kernel.indices' and 'kernel.matrix'")
        if not all(isinstance(row, list) for row in rows):
            raise ConfigError("field 'kernel.matrix' must be a list of rows")
        if not isinstance(involution, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in involution
        ):
            raise ConfigError("field 'kernel.involution' must list [tag, conjugate-tag] pairs")
        for tag in tags + [t for pair in involution for t in pair]:
            if isinstance(tag, (bool, list, dict)) or isinstance(tag, float) and not math.isfinite(tag):
                raise ConfigError(f"index tag {tag!r} is a boolean, a list, an object or not finite")
        if "V" in tags:
            raise ConfigError("index tag 'V' is taken: it is the vacuum projector in moment words")
        partner = {}
        for a, b in involution:
            if not {a, b} <= set(tags) or a in partner or b in partner:
                raise ConfigError(f"involution pair {[a, b]!r} must pair tags of 'kernel.indices', "
                                  "each in one pair")
            partner[a], partner[b] = b, a
        rows = [[_complex_value(v, "kernel.matrix") for v in row] for row in rows]
        try:
            # Hermitian, deliberately not positive: gram and verify report non-states
            indices = [Index(t, partner.get(t)) for t in tags]
            kernel = GaussianKernel(indices, rows, validate=False)
        except ValueError as exc:
            raise ConfigError(f"field 'kernel': {exc}") from exc
        return kernel, None, None
    mass = _float_value(raw.get("mass", 1.0), "kernel.mass")
    try:
        if kind == "gibbs-oscillator":
            frequency = _float_value(raw.get("frequency", 1.0), "kernel.frequency")
            temperature = _float_value(raw.get("temperature", 1.0), "kernel.temperature")
            return gibbs_oscillator_kernel(mass, frequency, temperature), None, None
        beta = raw.get("beta")
        spec = FieldKernelSpec(
            mass=mass,
            hbar=_float_value(raw.get("hbar", 1.0), "kernel.hbar"),
            beta=math.inf if beta is None else _float_value(beta, "kernel.beta"),
            rest_frame=_float_pair(raw.get("rest_frame", [1.0, 0.0]), "kernel.rest_frame"),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'kernel': {exc}") from exc
    packets = raw.get("packets")
    if not isinstance(packets, list) or not packets:
        raise ConfigError("field 'kernel.packets' must be a non-empty list")
    parsed = []
    for pos, packet in enumerate(packets):
        where = f"kernel.packets[{pos}]"
        if not isinstance(packet, dict):
            raise ConfigError(f"field '{where}' must be an object")
        for key in packet:
            if key not in PACKET_FIELDS:
                raise ConfigError(f"unknown field '{where}.{key}'")
        try:
            packet = Wavepacket.gaussian(
                amplitude=_complex_value(packet.get("amplitude", 1.0), f"{where}.amplitude"),
                center=_float_pair(packet.get("center", [0.0, 0.0]), f"{where}.center"),
                width=_float_value(packet.get("width", 1.0), f"{where}.width"),
                wavevector=_float_pair(packet.get("wavevector", [0.0, 0.0]), f"{where}.wavevector"),
            )
        except ValueError as exc:
            raise ConfigError(f"field '{where}': {exc}") from exc
        parsed.append(packet)
    return None, spec, parsed


def build_kernel(config: dict):
    """Kernel plus the optional field context (spec, packets) behind it."""
    kernel, spec, packets = parse_kernel(config)
    return kernel if spec is None else kernel_as_gaussian(spec, packets), spec, packets


def _position(ref, packets: list, where: str) -> int:
    if type(ref) is not int or not 0 <= ref < len(packets):
        raise ConfigError(f"field '{where}': {ref!r} is not a packet position")
    return ref


def _reference(ref, kernel, packets, where: str) -> Index:
    """A matrix or Gibbs index by its tag; a field packet by its position in 'packets'."""
    if packets is not None:
        return packet_index(packets[_position(ref, packets, where)])
    for ix in kernel.indices:
        if ix.tag == ref and not isinstance(ref, bool):  # True == 1 would alias tag 1
            return ix
    raise ConfigError(f"field '{where}': index tag {ref!r} is not in the kernel")


def _word(raw: list, kernel, packets) -> tuple:
    """A moments word as its CSV label and its segments between "V" symbols."""
    labels, segments = [], [[]]
    for ref in raw:
        if ref == "V":
            labels.append("V")
            segments.append([])
        else:
            ix = _reference(ref, kernel, packets, "words")
            labels.append(f"M{ref}" if packets is not None else f"M{ix.tag}")
            segments[-1].append(ix)
    return "*".join(labels) if labels else "1", tuple(tuple(s) for s in segments)


def _check_basis_size(kernel, packets, degree: int, what: str):
    """Refuse a run whose words over the kernel's indices to ``degree`` exceed ``BASIS_CAP``."""
    n = len(kernel.indices) if packets is None else len(packet_family(packets))
    size = sum(n**k for k in range(degree + 1))
    if size > BASIS_CAP:
        raise ConfigError(f"{what} over {n} indices has {size} words, over the cap of {BASIS_CAP}")


def parse_config(config: dict, mode: str, flags) -> tuple:
    """The output path, and the config and flags as keyword arguments of the mode's runner.

    Every field is read and checked first, once, so each config error
    (exit 2) is raised before any numerical work starts.  The last step
    builds the run's one Gaussian kernel; a field kernel's quadrature runs
    there, for every mode but boost-scan, which pairs its packets itself.
    """
    declared = config.get("mode")
    if declared is not None and declared != mode:
        raise ConfigError(f"field 'mode' is '{declared}' but the command is '{mode}'")
    required, optional = FIELDS[mode]
    read = required | optional | {"mode", "out"}
    for key in config:
        if key not in read:
            raise ConfigError(f"mode '{mode}' does not read field '{key}'")
    for key in ("seed", "tolerance"):
        if getattr(flags, key) is not None and key not in read:
            raise ConfigError(f"mode '{mode}' does not read flag '--{key}'")
    for key in required:
        if key not in config:
            raise ConfigError(f"mode '{mode}' requires field '{key}'")
    overrides = {key: getattr(flags, key) for key in ("seed", "tolerance", "out")}
    # a config is valid on its own: a value a flag overrides is checked too, so
    # whether a file is refused does not depend on the flags it is run with
    for values in (config, {**config, **{k: v for k, v in overrides.items() if v is not None}}):
        seed = values.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ConfigError(f"field 'seed' must be a non-negative integer, not {seed!r}")
        tolerance = _float_value(values.get("tolerance", 1e-10), "tolerance")
        if tolerance < 0:
            raise ConfigError(f"field 'tolerance' must not be negative, not {tolerance!r}")
        out = values.get("out")
        if out is not None and (not isinstance(out, str) or not out):
            raise ConfigError("field 'out' must be a non-empty path string")
    kernel, spec, packets = parse_kernel(config)
    # without a pair, one packet is paired with itself
    pair = config.get("pair", [0, 0] if packets is not None and len(packets) == 1 else [0, 1])
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError("field 'pair' must name two indices or packets")
    if spec is not None:
        f, g = (packets[_position(ref, packets, "pair")] for ref in pair)
    if mode == "boost-scan":
        if spec is None:
            raise ConfigError("mode 'boost-scan' requires a field kernel")
        if not spec.is_thermal:
            raise ConfigError("field 'kernel.beta' must be finite for boost scans")
        return out, {"spec": spec, "f": f, "g": g,
                     "rapidities": _float_list(config["rapidities"], "rapidities")}
    if mode == "verify":
        for key in ("pair", "separations"):
            if spec is None and key in config:
                raise ConfigError(f"field '{key}' applies to field kernels only")
        separations = _float_list(config.get("separations", [10.0]), "separations")
        if not separations:
            raise ConfigError("field 'separations' must list at least one separation")
        _check_basis_size(kernel, packets, WICK_ORACLE_LENGTH,
                          f"the Wick oracle to length {WICK_ORACLE_LENGTH}")
        field = None if spec is None else (spec, f, g, separations)
        # the seed and tolerance the run uses, and no output path
        echo = {key: value for key, value in values.items() if key != "out"}
        settings = dict(seed=seed, tolerance=tolerance, field=field, config_echo=echo)
    elif mode == "moments":
        words = config["words"]
        if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
            raise ConfigError("field 'words' must be a list of lists")
        settings = dict(words=[_word(w, kernel, packets) for w in words])
    elif mode == "gram":
        degree = config.get("degree", 2)
        if type(degree) is not int or not 0 <= degree <= MATCHING_CAP // 2:
            raise ConfigError(f"field 'degree' must be an integer from 0 to {MATCHING_CAP // 2}")
        _check_basis_size(kernel, packets, degree, f"the degree-{degree} Gram basis")
        settings = dict(tolerance=tolerance, degree=degree)
    else:
        i, j = (_reference(ref, kernel, packets, "pair") for ref in pair)
        settings = dict(tolerance=tolerance, pair=pair, i=i, j=j)
    return out, dict(settings, kernel=kernel if spec is None else kernel_as_gaussian(spec, packets))


def _float_repr(value: float) -> str:
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite value {value!r} in the table")
    return repr(float(value))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _json(payload: dict) -> str:
    """Strict JSON; a NaN or an infinity in a report is a numerical failure."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in the report: {exc}") from exc


def run_verify_mode(kernel, **settings) -> tuple:
    report = run_verify(kernel, **settings)
    return _json(report.as_dict()), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def run_moments_mode(kernel, words) -> tuple:
    lines = ["word,re,im"]
    status = EXIT_OK
    for label, segments in words:
        if sum(len(s) for s in segments) > MATCHING_CAP:
            lines.append(f"{label},ERROR,ERROR")
            status = EXIT_CHECK_FAILED
            continue
        value = extended_word_expect(kernel, segments)
        lines.append(f"{label},{_float_repr(value.real)},{_float_repr(value.imag)}")
    return "\n".join(lines) + "\n", status


def run_gram_mode(kernel, tolerance, degree) -> tuple:
    report = gram(build_basis(kernel.indices, degree), kernel, tolerance=tolerance)
    return _json(report.as_dict()), EXIT_OK if report.is_positive() else EXIT_CHECK_FAILED


def run_boost_scan_mode(spec, f, g, rapidities) -> tuple:
    vacuum = spec.vacuum
    vacuum_base = vacuum_kernel(vacuum, f, g)
    thermal_base = thermal_kernel(spec, f, g)
    lines = ["rapidity,vacuum_deviation,thermal_deviation"]
    status = EXIT_OK
    for chi in rapidities:
        try:
            vacuum_dev = boost_deviation(vacuum, f, g, chi, vacuum_base)
            thermal_dev = boost_deviation(spec, f, g, chi, thermal_base)
        except QuadratureError:
            lines.append(f"{_float_repr(chi)},ERROR,ERROR")
            status = EXIT_NUMERICAL
            continue
        lines.append(
            f"{_float_repr(chi)},{_float_repr(vacuum_dev)},{_float_repr(thermal_dev)}"
        )
    return "\n".join(lines) + "\n", status


def run_witness_mode(kernel, tolerance, pair, i, j) -> tuple:
    between, in_front = commutation_witness(kernel, i, j)
    factor_residual = abs(
        between - kernel.word_expect((i,)) * kernel.word_expect((j,))
    ) + abs(in_front - kernel.word_expect((i, j)))
    gap = abs(between - in_front)
    payload = {
        "mode": "witness",
        "pair": pair,
        "projector_between": [between.real, between.imag],
        "projector_in_front": [in_front.real, in_front.imag],
        "gap": gap,
        "noncommuting": gap > tolerance,
        "factorization_residual": factor_residual,
        "passed": factor_residual <= tolerance,
    }
    return _json(payload), EXIT_OK if factor_residual <= tolerance else EXIT_CHECK_FAILED


_RUNNERS = {
    "verify": run_verify_mode,
    "moments": run_moments_mode,
    "gram": run_gram_mode,
    "boost-scan": run_boost_scan_mode,
    "witness": run_witness_mode,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcmt",
        description="Verification suites and experiments for measurement algebras",
    )
    parser.add_argument("mode", choices=FIELDS)
    parser.add_argument("--config", type=str, default=None, help="JSON experiment config")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    parser.add_argument("--tolerance", type=float, default=None, help="check tolerance")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QCMT_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO), stream=sys.stderr
        )
    args = build_parser().parse_args(argv)
    try:
        out, settings = parse_config(load_config(args.config, args.mode), args.mode, args)
        started = time.perf_counter()
        text, status = _RUNNERS[args.mode](**settings)
        logger.info("%s finished in %.2fs", args.mode, time.perf_counter() - started)
        _write_text(out, text)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numerical failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OverflowError, FloatingPointError, LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
