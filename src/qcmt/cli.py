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

from .algebra import Index
from .fields import FieldKernelSpec, PoincareElement, QuadratureError, Wavepacket, kernel_as_gaussian, poincare_act, thermal_kernel, vacuum_kernel
from .gaussian import MATCHING_CAP, GaussianKernel, GaussianState
from .gns import build_basis, gram
from .koopman import gibbs_oscillator_kernel
from .vacuum import commutation_witness, extended_word_expect
from .verify import run_verify

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MODES = ("verify", "moments", "gram", "boost-scan", "witness")

COMMON_FIELDS = {"mode", "kernel", "seed", "tolerance", "out"}
ALLOWED_FIELDS = {
    "verify": COMMON_FIELDS | {"pair", "separations"},
    "moments": COMMON_FIELDS | {"words"},
    "gram": COMMON_FIELDS | {"degree"},
    "boost-scan": COMMON_FIELDS | {"rapidities", "pair"},
    "witness": COMMON_FIELDS | {"pair"},
}
REQUIRED_FIELDS = {
    "verify": set(),
    "moments": {"kernel", "words"},
    "gram": {"kernel"},
    "boost-scan": {"kernel", "rapidities"},
    "witness": {"kernel", "pair"},
}

KERNEL_FIELDS = {
    "matrix": {"type", "indices", "matrix", "involution"},
    "gibbs-oscillator": {"type", "mass", "frequency", "temperature"},
    "field": {"type", "mass", "hbar", "beta", "rest_frame", "packets"},
}
PACKET_FIELDS = {"amplitude", "center", "width", "wavevector"}

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
    """A finite JSON number; NaN, infinities and overflowing integers are refused."""
    if not isinstance(raw, (int, float)):
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


def load_config(path: str | None, mode: str) -> dict:
    if path is None:
        if mode == "verify":
            return json.loads(json.dumps(DEFAULT_VERIFY_CONFIG))
        raise ConfigError(f"mode '{mode}' requires --config")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def validate_config(config: dict, mode: str):
    declared = config.get("mode")
    if declared is not None and declared != mode:
        raise ConfigError(f"field 'mode' is '{declared}' but the command is '{mode}'")
    for key in config:
        if key not in ALLOWED_FIELDS[mode]:
            raise ConfigError(f"unknown field '{key}' for mode '{mode}'")
    for key in REQUIRED_FIELDS[mode]:
        if key not in config:
            raise ConfigError(f"mode '{mode}' requires field '{key}'")
    kernel = config.get("kernel", DEFAULT_VERIFY_CONFIG["kernel"])
    if not isinstance(kernel, dict):
        raise ConfigError("field 'kernel' must be an object")
    kind = kernel.get("type")
    if kind not in KERNEL_FIELDS:
        raise ConfigError(f"field 'kernel.type' must be one of {sorted(KERNEL_FIELDS)}")
    for key in kernel:
        if key not in KERNEL_FIELDS[kind]:
            raise ConfigError(f"unknown field 'kernel.{key}' for kernel type '{kind}'")
    if kind == "matrix":
        tags = kernel.get("indices")
        matrix = kernel.get("matrix")
        if not isinstance(tags, list) or not isinstance(matrix, list):
            raise ConfigError("matrix kernels need lists 'kernel.indices' and 'kernel.matrix'")
        if not all(isinstance(row, list) for row in matrix):
            raise ConfigError("field 'kernel.matrix' must be a list of rows")
        involution = kernel.get("involution", [])
        if not isinstance(involution, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in involution
        ):
            raise ConfigError("field 'kernel.involution' must list [tag, conjugate-tag] pairs")
        for tag in tags + [t for pair in involution for t in pair]:
            if isinstance(tag, (list, dict)):
                raise ConfigError(f"index tag {tag!r} must not be a list or an object")
    if kind == "field":
        packets = kernel.get("packets")
        if not isinstance(packets, list) or not packets:
            raise ConfigError("field 'kernel.packets' must be a non-empty list")
        for pos, packet in enumerate(packets):
            if not isinstance(packet, dict):
                raise ConfigError(f"field 'kernel.packets[{pos}]' must be an object")
            for key in packet:
                if key not in PACKET_FIELDS:
                    raise ConfigError(f"unknown field 'kernel.packets[{pos}].{key}'")
    out = config.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("field 'out' must be a path string")
    if mode == "moments":
        words = config["words"]
        if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
            raise ConfigError("field 'words' must be a list of lists")
    if "pair" in config or mode == "boost-scan":
        pair = config.get("pair", [0, 1])
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("field 'pair' must name two indices or packets")
        if kind == "field" and mode != "witness":
            for ref in pair:
                if type(ref) is not int or not 0 <= ref < len(kernel["packets"]):
                    raise ConfigError(f"field 'pair': {ref!r} is not a packet position")
    if mode == "verify" and config.get("separations") is not None:
        separations = config["separations"]
        if not isinstance(separations, list):
            raise ConfigError("field 'separations' must be a list of numbers")
        for pos, sep in enumerate(separations):
            _float_value(sep, f"separations[{pos}]")
    if mode == "gram":
        degree = config.get("degree", 2)
        if type(degree) is not int or not 0 <= degree <= MATCHING_CAP // 2:
            raise ConfigError(f"field 'degree' must be an integer from 0 to {MATCHING_CAP // 2}")
    if mode == "boost-scan":
        rapidities = config["rapidities"]
        if not isinstance(rapidities, list):
            raise ConfigError("field 'rapidities' must be a list of numbers")
        for pos, chi in enumerate(rapidities):
            _float_value(chi, f"rapidities[{pos}]")


def build_packet(raw: dict, where: str) -> Wavepacket:
    try:
        return Wavepacket.gaussian(
            amplitude=_complex_value(raw.get("amplitude", 1.0), f"{where}.amplitude"),
            center=_float_pair(raw.get("center", [0.0, 0.0]), f"{where}.center"),
            width=_float_value(raw.get("width", 1.0), f"{where}.width"),
            wavevector=_float_pair(raw.get("wavevector", [0.0, 0.0]), f"{where}.wavevector"),
        )
    except ValueError as exc:
        raise ConfigError(f"field '{where}': {exc}") from exc


def build_kernel(config: dict):
    """Kernel plus the optional field context (spec, packets) behind it."""
    raw = config.get("kernel", DEFAULT_VERIFY_CONFIG["kernel"])
    kind = raw["type"]
    if kind == "matrix":
        partner = {}
        for tag, ctag in raw.get("involution", []):
            partner[tag] = ctag
            partner[ctag] = tag
        indices = [Index(t, partner.get(t)) for t in raw["indices"]]
        rows = [[_complex_value(v, "kernel.matrix") for v in row] for row in raw["matrix"]]
        try:
            # deliberately unvalidated: the gram check reports non-states
            kernel = GaussianKernel.from_matrix(indices, rows, validate=False)
        except ValueError as exc:
            raise ConfigError(f"field 'kernel.matrix': {exc}") from exc
        return kernel, None, None
    if kind == "gibbs-oscillator":
        try:
            kernel = gibbs_oscillator_kernel(
                _float_value(raw.get("mass", 1.0), "kernel.mass"),
                _float_value(raw.get("frequency", 1.0), "kernel.frequency"),
                _float_value(raw.get("temperature", 1.0), "kernel.temperature"),
            )
        except ValueError as exc:
            raise ConfigError(f"field 'kernel': {exc}") from exc
        return kernel, None, None
    beta = raw.get("beta")
    try:
        spec = FieldKernelSpec(
            mass=_float_value(raw.get("mass", 1.0), "kernel.mass"),
            hbar=_float_value(raw.get("hbar", 1.0), "kernel.hbar"),
            beta=math.inf if beta is None else _float_value(beta, "kernel.beta"),
            rest_frame=_float_pair(raw.get("rest_frame", [1.0, 0.0]), "kernel.rest_frame"),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'kernel': {exc}") from exc
    packets = [build_packet(p, f"kernel.packets[{pos}]") for pos, p in enumerate(raw["packets"])]
    kernel = kernel_as_gaussian(spec, packets, tol=1e-8)
    return kernel, spec, packets


def _resolve_index(kernel: GaussianKernel, ref, field_kernel: bool) -> Index:
    if field_kernel:
        if not isinstance(ref, int) or not 0 <= ref < len(kernel.indices):
            raise ConfigError(f"packet reference {ref!r} is not a valid position")
        return kernel.indices[ref]
    for ix in kernel.indices:
        if ix.tag == ref:
            return ix
    raise ConfigError(f"index tag {ref!r} is not in the kernel")


def _float_repr(value: float) -> str:
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


def _echo_config(config: dict) -> dict:
    return json.loads(json.dumps(config))


def run_verify_mode(config: dict, out: str | None, seed: int, tolerance: float) -> int:
    kernel, spec, packets = build_kernel(config)
    started = time.perf_counter()
    report = run_verify(
        kernel,
        seed=seed,
        tolerance=tolerance,
        field_spec=spec,
        packets=packets,
        pair=tuple(config.get("pair", (0, 1))),
        separations=config.get("separations"),
        config_echo=_echo_config(config),
    )
    logger.info("verify finished in %.2fs", time.perf_counter() - started)
    _write_text(out, report.to_json())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def run_moments_mode(config: dict, out: str | None, seed: int, tolerance: float) -> int:
    kernel, spec, _ = build_kernel(config)
    state = GaussianState(kernel)
    field_kernel = spec is not None
    lines = ["word,re,im"]
    status = EXIT_OK
    for raw_word in config["words"]:
        label_parts = []
        segments = [[]]
        for ref in raw_word:
            if ref == "V":
                label_parts.append("V")
                segments.append([])
            else:
                ix = _resolve_index(kernel, ref, field_kernel)
                label_parts.append(f"M{ref}" if field_kernel else f"M{ix.tag}")
                segments[-1].append(ix)
        label = "*".join(label_parts) if label_parts else "1"
        total_length = sum(len(s) for s in segments)
        if total_length > MATCHING_CAP:
            lines.append(f"{label},ERROR,ERROR")
            status = EXIT_CHECK_FAILED
            continue
        value = extended_word_expect(state, tuple(tuple(s) for s in segments))
        lines.append(f"{label},{_float_repr(value.real)},{_float_repr(value.imag)}")
    _write_text(out, "\n".join(lines) + "\n")
    return status


def run_gram_mode(config: dict, out: str | None, seed: int, tolerance: float) -> int:
    kernel, _, _ = build_kernel(config)
    basis = build_basis(kernel.indices, config.get("degree", 2))
    report = gram(basis, GaussianState(kernel), tolerance=tolerance)
    logger.info(
        "gram: dimension=%d null=%d min-eigenvalue=%.3e",
        report.dimension,
        report.null_dimension,
        report.min_eigenvalue,
    )
    _write_text(out, report.to_json() + "\n")
    return EXIT_OK if report.is_positive() else EXIT_CHECK_FAILED


def run_boost_scan_mode(config: dict, out: str | None, seed: int, tolerance: float) -> int:
    kernel, spec, packets = build_kernel(config)
    if spec is None:
        raise ConfigError("mode 'boost-scan' requires a field kernel")
    if not spec.is_thermal:
        raise ConfigError("field 'kernel.beta' must be finite for boost scans")
    first, second = config.get("pair", [0, 1])
    f, g = packets[first], packets[second]
    vacuum_base = vacuum_kernel(spec, f, g)
    thermal_base = thermal_kernel(spec, f, g)
    lines = ["rapidity,vacuum_deviation,thermal_deviation"]
    status = EXIT_OK
    for chi in config["rapidities"]:
        move = PoincareElement.boost(float(chi))
        fb, gb = poincare_act(move, f), poincare_act(move, g)
        try:
            vacuum_dev = abs(vacuum_kernel(spec, fb, gb) - vacuum_base)
            thermal_dev = abs(thermal_kernel(spec, fb, gb) - thermal_base)
        except QuadratureError:
            lines.append(f"{_float_repr(chi)},ERROR,ERROR")
            status = EXIT_NUMERICAL
            continue
        lines.append(
            f"{_float_repr(chi)},{_float_repr(vacuum_dev)},{_float_repr(thermal_dev)}"
        )
    _write_text(out, "\n".join(lines) + "\n")
    return status


def run_witness_mode(config: dict, out: str | None, seed: int, tolerance: float) -> int:
    kernel, spec, _ = build_kernel(config)
    state = GaussianState(kernel)
    pair = config["pair"]
    i = _resolve_index(kernel, pair[0], spec is not None)
    j = _resolve_index(kernel, pair[1], spec is not None)
    between, in_front = commutation_witness(state, i, j)
    factor_residual = abs(
        between - state.word_expect((i,)) * state.word_expect((j,))
    ) + abs(in_front - state.word_expect((i, j)))
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
    _write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if factor_residual <= tolerance else EXIT_CHECK_FAILED


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
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        cmd = sub.add_parser(mode)
        cmd.add_argument("--config", type=str, default=None, help="JSON experiment config")
        cmd.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        cmd.add_argument("--tolerance", type=float, default=None, help="check tolerance")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QCMT_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO), stream=sys.stderr
        )
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.mode)
        validate_config(config, args.mode)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ConfigError(f"field 'seed' must be a non-negative integer, not {seed!r}")
        tolerance = _float_value(
            args.tolerance if args.tolerance is not None else config.get("tolerance", 1e-10),
            "tolerance",
        )
        out = args.out if args.out is not None else config.get("out")
        return _RUNNERS[args.mode](config, out, seed, tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numerical failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
