import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmt.cli import main

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


def test_unknown_field_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {"kernel": K2_KERNEL, "frobnicate": 1})
    assert main(["verify", "--config", config]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_mode_mismatch_is_rejected(tmp_path):
    config = write_config(tmp_path, {"mode": "gram", "kernel": K2_KERNEL})
    assert main(["verify", "--config", config]) == 2


def test_malformed_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


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
    "indices-infinite": ("verify", {"kernel": {**K2_KERNEL, "indices": [INF, 2]}}, 2),
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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exit_code(tmp_path, capsys, name):
    mode, payload, code = MALFORMED[name]
    # json.dumps writes NaN and Infinity, which Python's json.load accepts
    config = write_config(tmp_path, payload)
    assert main([mode, "--config", config]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    expected = "config error" if code == 2 else "numerical failure"
    assert expected in captured.err
    assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()


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
    ("verify", {"kernel": K2_KERNEL, "seed": 1, "tolerance": 1e-9, "pair": [1, 2]}),
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
