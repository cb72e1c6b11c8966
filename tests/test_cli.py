import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracles import wick_by_matchings
from qcmt import cli, verify
from qcmt.algebra import Index
from qcmt.cli import main
from qcmt.fields import packet_index

K2_KERNEL = {"type": "matrix", "indices": [1, 2], "matrix": [[1, 0.5], [0.5, 1]]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_default_config_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "algebra-laws",
        "wick-oracle",
        "bracket-relations",
        "gram-psd",
        "extended-positivity",
    ]


def test_verify_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--out", str(first), "--seed", "0"]) == 0
    assert main(["verify", "--out", str(second), "--seed", "0"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_fails_on_non_psd_kernel(tmp_path):
    config = write_config(
        tmp_path,
        {"kernel": {"type": "matrix", "indices": [1, 2], "matrix": [[1, 2], [2, 1]]}},
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--config", config, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "gram-psd" in failed
    # one report, one verdict: the seeds a 200-trial random probe of G_2 missed
    for seed in (0, 13, 21, 27, 33):
        assert main(["verify", "--config", config, "--out", str(out), "--seed", str(seed)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert not checks["gram-psd"]["passed"] and not checks["extended-positivity"]["passed"]
        assert checks["extended-positivity"]["worst"] == checks["gram-psd"]["worst"] > 0


def test_verify_fails_when_the_adjoint_skips_the_involution(monkeypatch, tmp_path):
    # an adjoint that reverses words without involving their letters keeps every other law
    monkeypatch.setattr("qcmt.algebra.word_adjoint", lambda w: tuple(reversed(w)))
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["algebra-laws"]["passed"] and checks["algebra-laws"]["worst"] == 1.0


def test_unknown_field_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "frobnicate": 1})
    assert main(["verify", "--config", config]) == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["nope"], ["--seed", "3"], ["nope", "--seed", "3"]])
def test_missing_or_unknown_mode_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcmt") and "mode" in err


def test_mode_mismatch_is_rejected(tmp_path):
    config = write_config(tmp_path, {"mode": "gram", "kernel": K2_KERNEL})
    assert main(["verify", "--config", config]) == 2


def test_malformed_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


@pytest.mark.parametrize("content", [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"],
                         ids=["nested-100000-deep", "not-utf-8"])
def test_undecodable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["gram", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("text,key", [
    ('{"kernel": {"type": "matrix", "indices": [1], "matrix": [[1]]}, "degree": 5, "degree": 1}',
     "degree"),
    ('{"kernel": {"type": "matrix", "indices": [1], "matrix": [[1]], "matrix": [[-1]]}}', "matrix"),
], ids=["degree", "kernel-matrix"])
def test_repeated_key_is_refused(tmp_path, capsys, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main(["gram", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and f"'{key}'" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_missing_required_field(tmp_path):
    config = write_config(tmp_path, {"kernel": K2_KERNEL})
    assert main(["moments", "--config", config]) == 2


def test_moments_table(tmp_path):
    config = write_config(
        tmp_path,
        {"kernel": K2_KERNEL, "words": [[1, 2], [1], [1, 2, 1, 2], ["V", 1, 2]]},
    )
    out = tmp_path / "moments.csv"
    assert main(["moments", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "word,re,im"
    assert lines[1] == "M1*M2,0.5,0.0"
    assert lines[2] == "M1,0.0,0.0"
    assert lines[3] == "M1*M2*M1*M2,1.5,0.0"
    assert lines[4] == "V*M1*M2,0.5,0.0"


def test_moments_csv_is_byte_identical(tmp_path):
    config = write_config(
        tmp_path, {"kernel": K2_KERNEL, "words": [[1, 2], [1, 2, 1, 2]]}
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["moments", "--config", config, "--out", str(first)]) == 0
    assert main(["moments", "--config", config, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_moments_word_over_cap(tmp_path):
    config = write_config(
        tmp_path, {"kernel": K2_KERNEL, "words": [[1, 2], [1] * 14]}
    )
    out = tmp_path / "moments.csv"
    assert main(["moments", "--config", config, "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[1] == "M1*M2,0.5,0.0"
    assert lines[2].endswith("ERROR,ERROR")


def test_gram_report(tmp_path):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "degree": 1})
    out = tmp_path / "gram.json"
    assert main(["gram", "--config", config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"dimension", "eigenvalues", "null_dimension", "tolerance"}
    assert payload["dimension"] == 3
    assert payload["null_dimension"] == 0


def test_gram_flags_indefinite_kernel(tmp_path):
    config = write_config(
        tmp_path,
        {
            "kernel": {"type": "matrix", "indices": [1, 2], "matrix": [[1, 2], [2, 1]]},
            "degree": 1,
        },
    )
    assert main(["gram", "--config", config, "--out", str(tmp_path / "g.json")]) == 1


def test_gram_gibbs_kernel(tmp_path):
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "gibbs-oscillator",
                "mass": 1.0,
                "frequency": 1.0,
                "temperature": 1.0,
            },
            "degree": 2,
        },
    )
    assert main(["gram", "--config", config, "--out", str(tmp_path / "g.json")]) == 0


def test_witness_payload(tmp_path):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "pair": [1, 2]})
    out = tmp_path / "witness.json"
    assert main(["witness", "--config", config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["projector_between"] == [0.0, 0.0]
    assert payload["projector_in_front"] == [0.5, 0.0]
    assert payload["noncommuting"] is True
    assert payload["passed"] is True


def test_boost_scan_table(tmp_path):
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "field",
                "mass": 1.0,
                "beta": 1.0,
                "packets": [
                    {"center": [0.0, 0.0], "width": 1.0, "wavevector": [0.3, 0.2]},
                    {"center": [0.2, 0.5], "width": 1.0, "wavevector": [-0.1, 0.4]},
                ],
            },
            "rapidities": [0.0, 0.5],
            "pair": [0, 1],
        },
    )
    out = tmp_path / "scan.csv"
    assert main(["boost-scan", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rapidity,vacuum_deviation,thermal_deviation"
    chi0 = lines[1].split(",")
    assert float(chi0[1]) == 0.0 and float(chi0[2]) == 0.0
    chi5 = lines[2].split(",")
    assert float(chi5[1]) <= 1e-6
    assert float(chi5[2]) > 1e-3


def test_boost_scan_requires_field_kernel(tmp_path):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "rapidities": [0.0]})
    assert main(["boost-scan", "--config", config]) == 2


def test_field_kernel_moments_by_position(tmp_path):
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "field",
                "mass": 1.0,
                "packets": [
                    {"center": [0.0, 0.0], "width": 1.0},
                    {"center": [0.0, 0.5], "width": 1.0},
                ],
            },
            "words": [[0, 1]],
        },
    )
    out = tmp_path / "m.csv"
    assert main(["moments", "--config", config, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "M0*M1"
    assert float(row[1]) > 0


def test_verify_empty_index_set_is_vacuous(tmp_path):
    config = write_config(
        tmp_path, {"kernel": {"type": "matrix", "indices": [], "matrix": []}}
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--config", config, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_one_packet_verify_pairs_the_packet_with_itself(tmp_path, capsys):
    kernel = _field(packets=[{"center": [0.0, 0.0], "wavevector": [0.3, 0.2]}])
    checks = []
    for name, pair in (("default", {}), ("explicit", {"pair": [0, 0]})):
        config = write_config(tmp_path, {"kernel": kernel, **pair}, f"{name}.json")
        out = tmp_path / f"{name}-report.json"
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        checks.append(json.loads(out.read_text())["checks"])
    assert checks[0] == checks[1]
    assert [c["name"] for c in checks[0]][5:] == [
        "vacuum-boost-invariance",
        "thermal-boost-discrimination",
        "thermal-vacuum-limit",
        "microcausality-decay",
        "commutator-beta-independence",
    ]
    config = write_config(tmp_path, {"kernel": kernel, "pair": [0, 1]}, "missing.json")
    assert main(["verify", "--config", config]) == 2
    assert "field 'pair': 1 is not a packet position" in capsys.readouterr().err


def test_one_packet_boost_scan_pairs_the_packet_with_itself(tmp_path, capsys):
    kernel = _field(packets=[{"center": [0.0, 0.0], "wavevector": [0.3, 0.2]}])
    tables = []
    for name, pair in (("default", {}), ("explicit", {"pair": [0, 0]})):
        config = write_config(tmp_path, {"kernel": kernel, "rapidities": [0.0, 0.5], **pair},
                              f"{name}.json")
        assert main(["boost-scan", "--config", config]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] and len(tables[0].splitlines()) == 3


def test_quadrature_failure_exits_numerical(tmp_path):
    # a nearly pointlike packet needs a momentum cutoff past the guard rail
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "field",
                "mass": 1.0,
                "beta": 1.0,
                "packets": [
                    {"center": [0.0, 0.0], "width": 1e-9},
                    {"center": [0.0, 0.5], "width": 1.0},
                ],
            },
            "rapidities": [0.0],
            "pair": [0, 1],
        },
    )
    assert main(["boost-scan", "--config", config]) == 3


def test_unresolvable_packet_width_names_the_grid_step(tmp_path, capsys):
    # a packet of width 1e8 needs a grid step of about 1e-8, finer than the node cap allows
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "field",
                "mass": 1.0,
                "beta": 1.0,
                "packets": [
                    {"center": [0.0, 0.0], "width": 1e8},
                    {"center": [0.0, 0.5], "width": 1.0},
                ],
            },
            "rapidities": [0.0],
            "pair": [0, 1],
        },
    )
    assert main(["boost-scan", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "never reached the resolving step 1.111e-08" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("width", [0.0, float("nan"), -1.0])
def test_bad_packet_width_is_a_config_error(tmp_path, capsys, width):
    config = write_config(
        tmp_path,
        {
            "kernel": {
                "type": "field",
                "mass": 1.0,
                "beta": 1.0,
                "packets": [{"width": width}, {"center": [0.0, 0.5]}],
            },
            "rapidities": [0.0],
        },
    )
    assert main(["boost-scan", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "kernel.packets[0]" in err and "width" in err
    assert "Traceback" not in err


def test_cli_entry_point_subprocess(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, QCMT_LOG="warning", PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "qcmt", "verify", "--out", str(tmp_path / "r.json")],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0


FIELD_KERNEL = {
    "type": "field",
    "mass": 1.0,
    "beta": 1.0,
    "packets": [{"center": [0.0, 0.0]}, {"center": [0.0, 0.5]}],
}
GIBBS_KERNEL = {"type": "gibbs-oscillator", "mass": 1.0, "frequency": 1.0, "temperature": 1.0}
NAN = float("nan")
INF = float("inf")


def _field(**changes):
    return {**FIELD_KERNEL, **changes}


def _packet(**changes):
    return _field(packets=[{"center": [0.0, 0.0], **changes}, {"center": [0.0, 0.5]}])


def _identity(n):
    """Identity matrix kernel over tags 1..n."""
    return {"type": "matrix", "indices": list(range(1, n + 1)),
            "matrix": [[float(i == j) for j in range(n)] for i in range(n)]}


def _packets(count, wavevector=(0.3, 0.2)):
    """``count`` packets in a row; with a wavevector each is two indices, packet and conjugate."""
    return _field(packets=[{"center": [0.0, 0.5 * k], "wavevector": list(wavevector)}
                           for k in range(count)])


MALFORMED = {
    "gram-matrix-nan": ("gram", {"kernel": {**K2_KERNEL, "matrix": [[1, NAN], [NAN, 1]]}}, 2),
    "gram-matrix-complex-inf": ("gram", {"kernel": {**K2_KERNEL, "matrix": [[1, [0.5, INF]], [0.5, 1]]}}, 2),
    "moments-matrix-inf": ("moments", {"kernel": {**K2_KERNEL, "matrix": [[INF, 0.5], [0.5, 1]]}, "words": [[1, 1]]}, 2),
    "gibbs-mass-nan": ("gram", {"kernel": {**GIBBS_KERNEL, "mass": NAN}}, 2),
    "gibbs-frequency-inf": ("gram", {"kernel": {**GIBBS_KERNEL, "frequency": INF}}, 2),
    "gibbs-temperature-nan": ("verify", {"kernel": {**GIBBS_KERNEL, "temperature": NAN}}, 2),
    "packet-amplitude-nan": ("boost-scan", {"kernel": _packet(amplitude=NAN), "rapidities": [0.0]}, 2),
    "packet-amplitude-pair-inf": ("boost-scan", {"kernel": _packet(amplitude=[1.0, -INF]), "rapidities": [0.0]}, 2),
    "packet-center-nan": ("boost-scan", {"kernel": _packet(center=[NAN, 0.0]), "rapidities": [0.0]}, 2),
    "packet-center-short": ("boost-scan", {"kernel": _packet(center=[0.0]), "rapidities": [0.0]}, 2),
    "packet-wavevector-inf": ("boost-scan", {"kernel": _packet(wavevector=[INF, 0.0]), "rapidities": [0.0]}, 2),
    "packet-width-string": ("boost-scan", {"kernel": _packet(width="1"), "rapidities": [0.0]}, 2),
    "field-mass-nan": ("moments", {"kernel": _field(mass=NAN), "words": [[0, 1]]}, 2),
    "field-hbar-inf": ("moments", {"kernel": _field(hbar=INF), "words": [[0, 1]]}, 2),
    "field-rest-frame-nan": ("boost-scan", {"kernel": _field(rest_frame=[NAN, 0.0]), "rapidities": [0.0]}, 2),
    # ut*ut - ux*ux is inf - inf = NaN, which must fail the unit-vector check
    "field-rest-frame-overflow": ("boost-scan", {"kernel": _field(rest_frame=[1e200, 1e200]), "rapidities": [0.0]}, 2),
    "field-beta-inf": ("moments", {"kernel": _field(beta=INF), "words": [[0, 1]]}, 2),
    "field-beta-nan": ("boost-scan", {"kernel": _field(beta=NAN), "rapidities": [0.0]}, 2),
    "field-beta-string": ("boost-scan", {"kernel": _field(beta="1"), "rapidities": [0.0]}, 2),
    "field-huge-integer-mass": ("moments", {"kernel": _field(mass=10**400), "words": [[0, 1]]}, 2),
    "rapidities-string": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": ["a"]}, 2),
    "rapidities-not-list": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": 5}, 2),
    "rapidities-nan": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0, NAN]}, 2),
    "rapidities-overflow": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [800.0]}, 3),
    "degree-negative": ("gram", {"kernel": K2_KERNEL, "degree": -1}, 2),
    "degree-string": ("gram", {"kernel": K2_KERNEL, "degree": "x"}, 2),
    "degree-bool": ("gram", {"kernel": K2_KERNEL, "degree": True}, 2),
    "degree-float": ("gram", {"kernel": K2_KERNEL, "degree": 2.0}, 2),
    "degree-over-cap": ("gram", {"kernel": K2_KERNEL, "degree": 7}, 2),
    "tolerance-nan": ("gram", {"kernel": K2_KERNEL, "tolerance": NAN}, 2),
    "matrix-not-list": ("gram", {"kernel": {**K2_KERNEL, "matrix": 5}}, 2),
    "matrix-row-not-list": ("gram", {"kernel": {**K2_KERNEL, "matrix": [1, 0.5]}}, 2),
    "indices-not-list": ("gram", {"kernel": {**K2_KERNEL, "indices": 3}}, 2),
    "involution-list-tag": ("gram", {"kernel": {**K2_KERNEL, "involution": [[[1], 2]]}}, 2),
    "involution-not-list": ("gram", {"kernel": {**K2_KERNEL, "involution": 5}}, 2),
    "words-not-list": ("moments", {"kernel": K2_KERNEL, "words": 5}, 2),
    "boost-scan-pair-number": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0], "pair": 5}, 2),
    "boost-scan-pair-missing-packet": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0], "pair": [0, 2]}, 2),
    "verify-pair-missing-packet": ("verify", {"kernel": FIELD_KERNEL, "pair": [0, 7]}, 2),
    "verify-pair-number": ("verify", {"kernel": K2_KERNEL, "pair": 5}, 2),
    "separations-string": ("verify", {"kernel": FIELD_KERNEL, "separations": "x"}, 2),
    "separations-list-string": ("verify", {"kernel": FIELD_KERNEL, "separations": ["x"]}, 2),
    "seed-string": ("verify", {"kernel": K2_KERNEL, "seed": "x"}, 2),
    "seed-float": ("verify", {"kernel": K2_KERNEL, "seed": 1.5}, 2),
    "seed-negative": ("verify", {"kernel": K2_KERNEL, "seed": -1}, 2),
    "out-number": ("gram", {"kernel": K2_KERNEL, "out": 5}, 2),
    "out-stdout-descriptor": ("gram", {"kernel": K2_KERNEL, "out": 1}, 2),
    "out-empty-path": ("gram", {"kernel": K2_KERNEL, "out": ""}, 2),
    "tolerance-negative": ("gram", {"kernel": K2_KERNEL, "tolerance": -1}, 2),
    "verify-tolerance-negative": ("verify", {"kernel": K2_KERNEL, "tolerance": -1}, 2),
    "indices-repeated": ("gram", {"kernel": {**K2_KERNEL, "indices": [1, 1]}, "degree": 1}, 2),
    "indices-equal-int-float": ("gram", {"kernel": {**K2_KERNEL, "indices": [1, 1.0]}, "degree": 1}, 2),
    "indices-equal-int-bool": ("gram", {"kernel": {**K2_KERNEL, "indices": [1, True]}, "degree": 1}, 2),
    # a boolean would alias the integer tag 1, since True == 1
    "indices-bool-tag": ("gram", {"kernel": {**K2_KERNEL, "indices": [True, 2]}, "degree": 1}, 2),
    "moments-word-bool-letter": ("moments", {"kernel": K2_KERNEL, "words": [[True, 2]]}, 2),
    "witness-pair-bool": ("witness", {"kernel": K2_KERNEL, "pair": [True, 2]}, 2),
    "indices-infinite": ("verify", {"kernel": {**K2_KERNEL, "indices": [INF, 2]}}, 2),
    "indices-projector-tag": ("moments", {"kernel": {**K2_KERNEL, "indices": ["V", "a"]}, "words": [["V", "a"]]}, 2),
    "involution-unknown-tag": ("gram", {"kernel": {**K2_KERNEL, "indices": [2, "b"], "involution": [["a", "b"]]}}, 2),
    "involution-unknown-partner": ("gram", {"kernel": {**K2_KERNEL, "involution": [[1, 9]]}}, 2),
    "involution-tag-in-two-pairs": ("gram", {"kernel": {"type": "matrix", "indices": [1, 2, 3], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "involution": [[1, 2], [2, 3]]}}, 2),
    "kernel-type-unhashable": ("gram", {"kernel": {**K2_KERNEL, "type": []}}, 2),
    "matrix-non-hermitian": ("gram", {"kernel": {**K2_KERNEL, "matrix": [[1, 0.5], [0.7, 1]]}, "degree": 1}, 2),
    "gram-matrix-huge": ("gram", {"kernel": {**K2_KERNEL, "matrix": [[1e308, 0.5], [0.5, 1]]}}, 3),
    "verify-matrix-huge": ("verify", {"kernel": {**K2_KERNEL, "matrix": [[1e308, 0.5], [0.5, 1]]}}, 3),
    "gibbs-temperature-huge": ("verify", {"kernel": {**GIBBS_KERNEL, "temperature": 1e308}}, 3),
    "gibbs-frequency-underflow": ("gram", {"kernel": {**GIBBS_KERNEL, "frequency": 1e-300}}, 2),
    "moments-infinite-value": ("moments", {"kernel": {**K2_KERNEL, "matrix": [[1e308, 0.5], [0.5, 1]]}, "words": [[1, 1, 1, 1]]}, 3),
    "witness-pair-conjugate-packet": ("witness", {"kernel": _packet(wavevector=[0.3, 0.2]), "pair": [0, 2]}, 2),
    "moments-word-conjugate-packet": ("moments", {"kernel": _packet(wavevector=[0.3, 0.2]), "words": [[2, 2]]}, 2),
    "gibbs-mass-bool": ("gram", {"kernel": {**GIBBS_KERNEL, "mass": True}}, 2),
    "matrix-entry-bool": ("gram", {"kernel": {**K2_KERNEL, "matrix": [[True, 0.5], [0.5, 1]]}}, 2),
    "tolerance-bool": ("gram", {"kernel": K2_KERNEL, "tolerance": True}, 2),
    "packet-width-bool": ("boost-scan", {"kernel": _packet(width=True), "rapidities": [0.0]}, 2),
    "rapidities-bool": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0, False]}, 2),
    "separations-empty": ("verify", {"kernel": FIELD_KERNEL, "separations": []}, 2),
    # basis sizes sum_k n^k over the cap: 299,593, 2,071 and 2,163 (23 packets) Gram
    # words; 2,801 and 4,681 (4 packets) Wick-oracle words
    "gram-basis-over-cap": ("gram", {"kernel": _identity(8), "degree": 6}, 2),
    "gram-degree-2-basis-over-cap": ("gram", {"kernel": _identity(45), "degree": 2}, 2),
    "gram-field-basis-over-cap": ("gram", {"kernel": _packets(23), "degree": 2}, 2),
    "verify-wick-words-over-cap": ("verify", {"kernel": _identity(7)}, 2),
    "verify-field-wick-words-over-cap": ("verify", {"kernel": _packets(4)}, 2),
    # inputs a mode does not read, each refused by the field or flag named last
    "moments-seed": ("moments", {"kernel": K2_KERNEL, "words": [[1, 2]], "seed": 1}, 2, "seed"),
    "moments-seed-flag": ("moments", {"kernel": K2_KERNEL, "words": [[1, 2]]}, 2, "--seed"),
    "moments-tolerance": ("moments", {"kernel": K2_KERNEL, "words": [[1, 2]], "tolerance": 1e-9}, 2, "tolerance"),
    "moments-tolerance-flag": ("moments", {"kernel": K2_KERNEL, "words": [[1, 2]]}, 2, "--tolerance"),
    "gram-seed": ("gram", {"kernel": K2_KERNEL, "seed": 1}, 2, "seed"),
    "gram-seed-flag": ("gram", {"kernel": K2_KERNEL}, 2, "--seed"),
    "boost-scan-seed": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0], "seed": 1}, 2, "seed"),
    "boost-scan-seed-flag": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0]}, 2, "--seed"),
    "boost-scan-tolerance": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0], "tolerance": 1e-9}, 2, "tolerance"),
    "boost-scan-tolerance-flag": ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0]}, 2, "--tolerance"),
    "witness-seed": ("witness", {"kernel": K2_KERNEL, "pair": [1, 2], "seed": 1}, 2, "seed"),
    "witness-seed-flag": ("witness", {"kernel": K2_KERNEL, "pair": [1, 2]}, 2, "--seed"),
    "verify-matrix-pair": ("verify", {"kernel": K2_KERNEL, "pair": [2, 1]}, 2, "pair"),
    "verify-gibbs-separations": ("verify", {"kernel": GIBBS_KERNEL, "separations": [12.0]}, 2, "separations"),
}


# every entry point of numerical work that a CLI run reaches through ``cli``
NUMERICAL_WORK = ("kernel_as_gaussian", "gram", "run_verify", "extended_word_expect",
                  "commutation_witness", "vacuum_kernel", "thermal_kernel")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exit_code(tmp_path, capsys, monkeypatch, name):
    mode, payload, code, *unread = MALFORMED[name]
    flags = [*unread, "1"] if unread and unread[0].startswith("--") else []
    if code == 2:  # a config error is raised before any numerical work starts
        for work in NUMERICAL_WORK:
            monkeypatch.setattr(cli, work, _refuse_numerical_work)
    # json.dumps writes NaN and Infinity, which Python's json.load accepts
    config = write_config(tmp_path, payload)
    assert main([mode, "--config", config, *flags]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    expected = "config error" if code == 2 else "numerical failure"
    assert expected in captured.err
    assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()
    if code == 2:
        assert captured.out == ""
    if unread:
        assert captured.err.startswith("config error: ") and f"'{unread[0]}'" in captured.err


# F^H W F overflows on an amplitude of 1e300; the Bose occupation 1 / (e^x - 1)
# overflows at beta 1e-320 and divides by zero where beta * hbar underflows to 0
OVERFLOWING_KERNELS = {"amplitude": _packet(amplitude=1e300), "occupation": _field(beta=1e-320),
                       "zero-exponent": _field(beta=1e-200, hbar=1e-200)}
MODE_FIELDS = {"verify": {}, "moments": {"words": [[0, 1]]}, "gram": {"degree": 1},
               "boost-scan": {"rapidities": [0.0]}, "witness": {"pair": [0, 1]}}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_KERNELS))
@pytest.mark.parametrize("mode", list(cli.FIELDS))
def test_overflowing_field_kernel_is_a_numerical_failure(tmp_path, capsys, mode, kind):
    config = write_config(tmp_path, {"kernel": OVERFLOWING_KERNELS[kind], **MODE_FIELDS[mode]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([mode, "--config", config]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "the kernel sum F^H W F is not finite" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# Valid states whose moments reach 3e12 and 6e8: the engine and the oracle sum
# them in different orders and differ by 1.2e-4 and 1.2e-7, round-off that an
# absolute cut at 1e-8 failed.
@pytest.mark.parametrize("kernel", [
    {"type": "matrix", "indices": [1, 2, 3],
     "matrix": [[1e6, 0.5, 0.2], [0.5, 1e6, 0.3], [0.2, 0.3, 1e6]]},
    _field(packets=[{"center": [0.0, 0.0], "amplitude": 100},
                    {"center": [0.0, 0.5], "amplitude": 100}]),
], ids=["matrix-diagonal-1e6", "thermal-field-amplitude-100"])
def test_wick_oracle_is_judged_at_the_moment_scale(tmp_path, kernel):
    out = tmp_path / "report.json"
    assert main(["verify", "--config", write_config(tmp_path, {"kernel": kernel}),
                 "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"][1]
    assert check["name"] == "wick-oracle" and 0 <= check["worst"] <= check["tolerance"]


def test_gram_of_huge_gibbs_mass_is_a_state(tmp_path):
    # variances 1e-308 and 1e308: the Hermitian part m/2 + m^H/2 stays finite
    config = write_config(tmp_path, {"kernel": {**GIBBS_KERNEL, "mass": 1e308}, "degree": 1})
    out = tmp_path / "g.json"
    assert main(["gram", "--config", config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["eigenvalues"] == [0.0, 1.0, 1e308]
    assert payload["null_dimension"] == 2


# Degree 5 on two real indices: the Gram matrix has largest eigenvalue
# about 7.9e7 and, in float64, lowest about -1.6e-8, round-off at 2e-16 of
# the scale; an absolute cut at the tolerance 1e-8 failed this state.
LARGE_SCALE_GRAM = {
    "kernel": {
        "type": "matrix",
        "indices": [1, 2],
        "matrix": [
            [[6.314561423782434, -0.0], [-4.282069796748778, 0.0]],
            [[-4.282069796748778, -0.0], [4.16617378131004, -0.0]],
        ],
    },
    "degree": 5,
    "tolerance": 1e-08,
}


def test_gram_judges_round_off_at_the_spectral_scale(tmp_path):
    config = write_config(tmp_path, LARGE_SCALE_GRAM)
    out = tmp_path / "g.json"
    assert main(["gram", "--config", config, "--out", str(out)]) == 0
    eigenvalues = json.loads(out.read_text())["eigenvalues"]
    assert min(eigenvalues) >= -1e-8 * max(1.0, max(eigenvalues))
    assert max(eigenvalues) > 1e7


def test_gram_degree_at_cap_is_accepted(tmp_path):
    config = write_config(
        tmp_path,
        {"kernel": {"type": "matrix", "indices": [1], "matrix": [[1.0]]}, "degree": 6},
    )
    assert main(["gram", "--config", config, "--out", str(tmp_path / "g.json")]) == 0


@pytest.mark.parametrize("mode,payload,words", [
    ("gram", {"kernel": K2_KERNEL, "degree": 3}, 15),
    ("verify", {"kernel": K2_KERNEL}, 31),
    ("gram", {"kernel": _packets(2), "degree": 1}, 5),
    # a real packet with zero wavevector is its own conjugate: four packets, four indices
    ("verify", {"kernel": _packets(4, wavevector=(0.0, 0.0))}, 341),
])
def test_basis_cap_admits_its_size_and_refuses_one_more(tmp_path, capsys, monkeypatch,
                                                        mode, payload, words):
    config = write_config(tmp_path, payload)
    monkeypatch.setattr("qcmt.cli.BASIS_CAP", words)
    assert main([mode, "--config", config, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.setattr("qcmt.cli.BASIS_CAP", words - 1)
    assert main([mode, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"has {words} words, over the cap of {words - 1}" in capsys.readouterr().err


def test_memory_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a backstop behind the basis cap, which refuses the 8-index kernel at
    # degree 6 that asked numpy for a 1.31 TiB Gram matrix
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.31 TiB for an array")

    monkeypatch.setattr("qcmt.cli.gram", exhausted)
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "degree": 1})
    assert main(["gram", "--config", config]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_non_finite_tolerance_flag_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "degree": 1})
    assert main(["gram", "--config", config, "--tolerance", "nan"]) == 2
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and captured.out == ""


def test_negative_tolerance_flag_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "degree": 1})
    assert main(["gram", "--config", config, "--tolerance", "-1"]) == 2
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and captured.out == ""


def test_field_moments_index_the_config_packets(tmp_path):
    a = {"center": [0.0, 0.0], "wavevector": [0.3, 0.2]}
    b = {"center": [0.0, 0.5], "wavevector": [-0.1, 0.4]}
    tables = []
    for packets, word in (([a, a, b], [2, 2]), ([a, b], [1, 1])):
        config = write_config(tmp_path, {"kernel": _field(packets=packets), "words": [word]})
        out = tmp_path / "m.csv"
        assert main(["moments", "--config", config, "--out", str(out)]) == 0
        tables.append(out.read_text().splitlines()[1].split(",")[1:])
    assert tables[0] == tables[1]


def test_config_value_under_a_flag_is_still_checked(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "seed": NAN})
    assert main(["verify", "--config", config, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""


def test_verify_echoes_the_flags_it_used(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "seed": 0, "tolerance": 1e-10,
                                     "out": str(tmp_path / "unused.json")})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", config, "--seed", "5", "--tolerance", "1e-9",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert report["config"] == {"kernel": K2_KERNEL, "seed": 5, "tolerance": 1e-9}
    # no output path is echoed, so the bytes do not depend on where they go
    assert main(["verify", "--config", write_config(tmp_path, {"kernel": K2_KERNEL}, "bare.json"),
                 "--seed", "5", "--tolerance", "1e-9"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_negative_seed_flag_is_a_config_error(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and "Traceback" not in captured.err and captured.out == ""


PAIRED_KERNEL = {
    "type": "matrix",
    "indices": ["a", "b", 3],
    "matrix": [[1, [0.2, 0.3], 0.1], [[0.2, -0.3], 1, 0], [0.1, 0, 1]],
    "involution": [["a", "b"]],
}
# A valid config of every mode and kernel kind; the fuzz below breaks them.
VALID = [
    ("verify", {"kernel": K2_KERNEL, "seed": 1, "tolerance": 1e-9}),
    ("verify", {"kernel": GIBBS_KERNEL}),
    ("verify", {"kernel": FIELD_KERNEL, "pair": [1, 0], "separations": [10.0, 12]}),
    ("moments", {"kernel": PAIRED_KERNEL, "words": [["a", "b"], ["V", 3, 3, "V", "a", "b"]]}),
    ("moments", {"kernel": GIBBS_KERNEL, "words": [["q", "q", "p", "p"]]}),
    ("moments", {"kernel": FIELD_KERNEL, "words": [[0, 1], [1, "V", 0, 1, 1]]}),
    ("gram", {"kernel": PAIRED_KERNEL, "degree": 2}),
    ("gram", {"kernel": GIBBS_KERNEL, "degree": 1}),
    ("gram", {"kernel": FIELD_KERNEL, "degree": 1}),
    ("boost-scan", {"kernel": FIELD_KERNEL, "rapidities": [0.0, 0.5], "pair": [0, 1]}),
    ("witness", {"kernel": K2_KERNEL, "pair": [1, 2], "tolerance": 1e-10}),
    ("witness", {"kernel": GIBBS_KERNEL, "pair": ["q", "p"]}),
    ("witness", {"kernel": FIELD_KERNEL, "pair": [1, 0]}),
]
DELETE = object()
BAD_VALUES = [NAN, INF, -INF, 10**400, 1e308, 1e-300, -1, 0, 7, True, False, "x", "",
              [], [[]], [1, [2, [3]]], {}, {"a": [1]}]


def _paths(node, prefix=()):
    """Every path into a JSON value, as a tuple of keys and positions."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(config, path, value):
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


@st.composite
def broken_configs(draw):
    mode, config = draw(st.sampled_from(VALID))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(config))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        config = _mutate(config, path, draw(st.sampled_from([DELETE] + BAD_VALUES)))
    return mode, config


def test_valid_fuzz_bases_pass(tmp_path):
    for mode, config in VALID:
        assert main([mode, "--config", write_config(tmp_path, config)]) == 0, (mode, config)


# derandomized: the suite runs the same 200 examples every time
@settings(max_examples=200, deadline=None, derandomize=True)
@given(broken_configs())
def test_exit_code_contract_under_config_fuzz(tmp_path_factory, case):
    mode, config = case
    path = write_config(tmp_path_factory.mktemp("fuzz"), config)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([mode, "--config", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or out.getvalue()
    assert "nan" not in out.getvalue().lower() and "inf" not in out.getvalue().lower()


# ------------------------------------------------------------ long index lists


def _run(mode, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([mode, "--config", path])
    return code, out.getvalue(), err.getvalue()


def _refuse_numerical_work(*args, **kwargs):
    raise AssertionError("numerical work started on a config that is refused")


# the fewest indices whose basis to each degree exceeds the cap; degree 1
# would need 2,000 indices, a matrix too large to draw
_FEWEST_OVER_CAP = {d: next(n for n in range(1, 100) if sum(n**k for k in range(d + 1)) > cli.BASIS_CAP)
                    for d in range(2, 7)}


@st.composite
def oversized_configs(draw):
    """A gram or verify config whose words to its degree exceed ``cli.BASIS_CAP``."""
    mode = draw(st.sampled_from(["gram", "verify"]))
    degree = draw(st.integers(2, 6)) if mode == "gram" else verify.WICK_ORACLE_LENGTH
    n = draw(st.integers(_FEWEST_OVER_CAP[degree], _FEWEST_OVER_CAP[degree] + 20))
    if draw(st.booleans()):
        kernel = _packets((n + 1) // 2)  # two indices per packet with a wavevector
        n += n % 2
    else:
        kernel = _identity(n)
    config = {"kernel": kernel, "degree": degree} if mode == "gram" else {"kernel": kernel}
    return mode, config, sum(n**k for k in range(degree + 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(oversized_configs())
def test_oversized_configs_are_refused_before_numerical_work(tmp_path_factory, case):
    mode, config, size = case
    path = write_config(tmp_path_factory.mktemp("oversized"), config)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("kernel_as_gaussian", "gram", "run_verify"):
            patch.setattr(cli, name, _refuse_numerical_work)
        code, out, err = _run(mode, path)
    assert code == 2
    assert f"has {size} words, over the cap of {cli.BASIS_CAP}" in err
    assert "Traceback" not in err and out == ""


# ------------------------------------------------------------ oracle fuzz


class _Pairing:
    """The drawn matrix as a pairing lookup, with no moment engine behind it."""

    def __init__(self, indices, matrix):
        self.position = {ix.tag: a for a, ix in enumerate(indices)}
        self.matrix = matrix

    def pairing(self, i, j):
        return self.matrix[self.position[i.tag]][self.position[j.tag]]


def _oracle_moment(pairing, segments):
    """rho(A_0 V A_1 ... V A_k) = prod_j rho(A_j), each factor by matching enumeration."""
    value = 1 + 0j
    for segment in segments:
        value *= wick_by_matchings(pairing, segment)
    return value


_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _moment_words(tags):
    """Up to 4 moment words over ``tags`` and "V", each with at most 8 letters."""
    letters = st.sampled_from(tags + ["V"])
    return st.lists(st.lists(letters, max_size=10).filter(
        lambda w: sum(x != "V" for x in w) <= 8), min_size=1, max_size=4)


@st.composite
def valid_matrix_configs(draw):
    """A kernel A A^dagger over tags 1..n, some tags paired, with moment words and a pair."""
    n = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(st.tuples(_unit, _unit), min_size=n * n, max_size=n * n)))
    a = (a[:, 0] + 1j * a[:, 1]).reshape(n, n)
    m = a @ a.conj().T
    m = m / 2 + m.conj().T / 2
    tags = list(range(1, n + 1))
    involution = [[t, t + 1] for t in tags[: 2 * draw(st.integers(0, n // 2)) : 2]]
    kernel = {"type": "matrix", "indices": tags, "involution": involution,
              "matrix": [[[v.real, v.imag] for v in row] for row in m.tolist()]}
    words = draw(_moment_words(tags))
    pair = draw(st.lists(st.sampled_from(tags), min_size=2, max_size=2))
    return kernel, words, pair, draw(st.integers(0, 2))


def _close(value, oracle, scale):
    return abs(value - oracle) <= 1e-9 * max(1.0, scale)


def _assert_cli_matches_oracles(folder, kernel, indices, matrix, words, pair, degree,
                                by_ref=None):
    """``moments``, ``witness`` and the ``gram`` trace of one kernel against matching
    enumeration over ``matrix``, the pairing of ``indices``, and equal bytes twice.

    ``by_ref`` maps the config's word and pair references to indices; by default
    a reference is an index tag."""
    by_ref = by_ref or {ix.tag: ix for ix in indices}
    oracle = _Pairing(indices, matrix)
    # the same sums with every contraction replaced by its modulus bound the round-off
    bound = _Pairing(indices, [[abs(v) for v in row] for row in matrix])

    runs = {
        "moments": {"kernel": kernel, "words": words},
        "witness": {"kernel": kernel, "pair": pair},
        "gram": {"kernel": kernel, "degree": degree},
    }
    outputs = {}
    for mode, config in runs.items():
        path = write_config(folder, config, f"{mode}.json")
        first, second = _run(mode, path), _run(mode, path)
        assert first == second
        code, out, err = first
        assert code == 0, err
        outputs[mode] = out

    rows = outputs["moments"].splitlines()[1:]
    assert len(rows) == len(words)
    for word, row in zip(words, rows):
        segments, current = [], []
        for ref in word:
            if ref == "V":
                segments.append(current)
                current = []
            else:
                current.append(by_ref[ref])
        segments.append(current)
        _, re, im = row.split(",")
        value = complex(float(re), float(im))
        assert _close(value, _oracle_moment(oracle, segments), _oracle_moment(bound, segments).real)

    witness = json.loads(outputs["witness"])
    i, j = (by_ref[t] for t in pair)
    between = complex(*witness["projector_between"])
    in_front = complex(*witness["projector_in_front"])
    assert _close(between, _oracle_moment(oracle, [[i], [j]]), 1.0)
    assert _close(in_front, _oracle_moment(oracle, [[i, j]]), abs(oracle.pairing(i.involve(), j)))

    report = json.loads(outputs["gram"])
    basis = [w for length in range(degree + 1) for w in product(indices, repeat=length)]
    diagonal = [[ix.involve() for ix in reversed(w)] + list(w) for w in basis]
    trace = sum(_oracle_moment(oracle, [w]) for w in diagonal)
    scale = sum(_oracle_moment(bound, [w]).real for w in diagonal)
    assert report["dimension"] == len(basis)
    assert _close(sum(report["eigenvalues"]), trace.real, scale)
    assert abs(trace.imag) <= 1e-9 * max(1.0, scale)


# No shrink phase: a failing example is reported as drawn.  Shrinking these
# end-to-end runs took minutes and over 1 GB when a moment was wrong.
@settings(max_examples=100, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(valid_matrix_configs())
def test_cli_values_match_the_oracles_on_valid_kernels(tmp_path_factory, case):
    kernel, words, pair, degree = case
    partner = {}
    for x, y in kernel["involution"]:
        partner[x], partner[y] = y, x
    indices = [Index(t, partner.get(t)) for t in kernel["indices"]]
    matrix = [[complex(*v) for v in row] for row in kernel["matrix"]]
    _assert_cli_matches_oracles(tmp_path_factory.mktemp("oracle"), kernel, indices, matrix,
                                words, pair, degree)


@st.composite
def valid_gibbs_configs(draw):
    """A Gibbs oscillator kernel over the tags "q" and "p", with moment words and a pair."""
    mass, frequency, temperature = (draw(st.floats(0.25, 4.0)) for _ in range(3))
    kernel = {"type": "gibbs-oscillator", "mass": mass, "frequency": frequency,
              "temperature": temperature}
    pair = draw(st.lists(st.sampled_from(["q", "p"]), min_size=2, max_size=2))
    return kernel, draw(_moment_words(["q", "p"])), pair, draw(st.integers(0, 2))


@settings(max_examples=50, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(valid_gibbs_configs())
def test_cli_values_match_the_oracles_on_gibbs_kernels(tmp_path_factory, case):
    kernel, words, pair, degree = case
    m, w, t = kernel["mass"], kernel["frequency"], kernel["temperature"]
    # equipartition: <q q> = kT / (m w^2), <p p> = m kT, <q p> = 0
    matrix = [[t / (m * w * w), 0j], [0j, m * t]]
    _assert_cli_matches_oracles(tmp_path_factory.mktemp("gibbs"), kernel,
                                [Index("q"), Index("p")], matrix, words, pair, degree)


@st.composite
def drawn_field_kernels(draw):
    """Two packets of a thermal field kernel, in a rest or moving frame."""
    def uniform(low, high):
        return draw(st.floats(low, high))

    def signed(low, high):
        return draw(st.sampled_from([-1.0, 1.0])) * uniform(low, high)

    chi = draw(st.sampled_from([0.0, signed(0.3, 0.8)]))
    packets = []
    for _ in range(2):
        r, phase = uniform(0.8, 1.5), uniform(0.0, 2 * np.pi)
        packets.append({"amplitude": [r * np.cos(phase), r * np.sin(phase)],
                        "center": [uniform(-1.5, 1.5), uniform(-1.5, 1.5)],
                        "width": uniform(0.7, 1.5),
                        "wavevector": [signed(0.3, 1.5), signed(0.3, 1.5)]})
    return {"type": "field", "mass": uniform(0.5, 1.5), "hbar": 1.0, "beta": uniform(0.5, 2.0),
            "rest_frame": [float(np.cosh(chi)), float(np.sinh(chi))], "packets": packets}


@st.composite
def drawn_boost_scans(draw):
    """A drawn field kernel and up to four rapidities with |eta| <= 1.8."""
    kernel = draw(drawn_field_kernels())
    rapidities = draw(st.lists(st.floats(-1.8, 1.8), min_size=1, max_size=4))
    return {"kernel": kernel, "rapidities": rapidities, "pair": [0, 1]}


@st.composite
def valid_field_configs(draw):
    """A drawn field kernel, thermal or vacuum, with moment words and a pair of packets."""
    kernel = draw(drawn_field_kernels())
    if draw(st.booleans()):
        del kernel["beta"]
    words = draw(_moment_words([0, 1]))
    pair = draw(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=2))
    return kernel, words, pair, draw(st.integers(0, 2))


@settings(max_examples=80, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(valid_field_configs())
def test_cli_values_match_the_oracles_on_field_kernels(tmp_path_factory, case):
    # the oracle reads the kernel's pairing matrix over the packets and their conjugates
    kernel, words, pair, degree = case
    gaussian, _, packets = cli.build_kernel({"kernel": kernel})
    by_ref = {pos: packet_index(f) for pos, f in enumerate(packets)}
    _assert_cli_matches_oracles(tmp_path_factory.mktemp("field"), kernel, gaussian.indices,
                                gaussian.matrix().tolist(), words, pair, degree, by_ref)


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(drawn_boost_scans())
def test_boost_scan_vacuum_is_invariant_on_drawn_field_kernels(tmp_path_factory, config):
    path = write_config(tmp_path_factory.mktemp("scan"), config)
    code, out, err = _run("boost-scan", path)
    assert code == 0, err
    rows = out.splitlines()
    assert rows[0] == "rapidity,vacuum_deviation,thermal_deviation"
    assert len(rows) == 1 + len(config["rapidities"])
    for row, eta in zip(rows[1:], config["rapidities"]):
        rapidity, vacuum_deviation, _ = row.split(",")
        assert float(rapidity) == eta
        assert float(vacuum_deviation) <= 1e-6, row
