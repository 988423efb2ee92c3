"""Pinned sha256 digests of the CLI outputs for the bundled dataset.

A refactor that keeps behaviour must keep these bytes.  The digests were
recorded with numpy 2.4.6 on CPython 3.11.7, x86_64 Linux (glibc libm).
The render rasters go through numpy's exp/cos/sqrt and the solve report
through math.atan2, so another numpy build or platform may differ in the
last ulp of some values; a digest change there must be explained, not
simply re-recorded.
"""

import hashlib

import pytest

from concept_interference.dataset import fruits_vegetables_csv
from concept_interference.cli import main

# Re-recorded when phases became atan2(lambda, d) instead of an arccos of
# d / (c sqrt(mu_a mu_b)): 2 of the 24 phases moved by at most 1.5e-14
# degrees, and with them two coordinates of vector_b and the orthogonality
# residual (1.908196e-17 -> 5.204170e-18, which verify prints).
SOLVE_REPORT = "4e43b1359a8d62614f453aa9b4919e86b0699b64a52df2dcef6e4dc83a2538eb"
VERIFY_STDOUT = "f8c9fc123a1a1a737961d3204ab951958050578e4fca32323c1129c210eee048"
CLASSIFY_STDOUT = "4f422d4e964b51789900920c4e8181c432bc280173fc5ecfa07dd719166a718c"
RENDER_FILES = {
    "a_only.csv": "b636b0b8e63885291ec34c02f2a9d2f6a16cddc2d35c8af8548b097e7e7c730e",
    "a_only.pgm": "fd5d75ed7a1ef04ddb2d24437bc45a8098e705c220de170619ca27ae2dc55d4a",
    "b_only.csv": "10f32be37d46541a9ea09b63b14d27a4aba7ed3de37cda97137a45d29d231108",
    "b_only.pgm": "a266adad0838351f9291789a7d6c488b38709417de0f21b7cf4c8b6e90d21849",
    "classical.csv": "f6a8981bd60535f02808b8dd351ef8039011f252ee9a768bf18649c3ae1974d0",
    "classical.pgm": "b58f6c79f9beb5c249586c1944801b8e15d5aadb1d14aa9486d0be09340650fc",
    # re-recorded when the phase field began to spread |phi_k| instead of the
    # signed phi_k (was 257659ab... and ae029368...): mu_ab_k depends on cos
    # phi_k only, so the landscape no longer shows the greedy pass's signs;
    # at 200 px the pixels whose cosine leaves [min cos phi_k, max cos phi_k]
    # went from 62.8% to 0.0%
    "interference.csv": "511df6f2b16085a4d2b5e91a0340e9f8d73f228ba629f056767170979ed130e9",
    "interference.pgm": "b8741095dbc5e63c70155fcd44bcc6e5f97447bf42ab63c693703877ede71a67",
    "placements.csv": "8916baac2a99130cf1c7e5a9b60272bf3c48bad3960543fc7a74cb09d71b4ddb",
}

# `--help` of the tool and of each subcommand at 80 columns; argparse's
# wording is CPython's, so another minor version may differ.
HELP_STDOUT = {
    (): "6eb8bf5cf74a6f2c459e667daecbfccec0b06fab0389e4155fa26ab2cb6c0e3c",
    ("solve",): "bca201bef24be7622f212ba18205c15b0d130e9c57f7b7b2a44ffca8de1058e0",
    ("render",): "8d26540bf84125765dd1a8b70c081446f22495b78a8b2b20aa94cad3d586b35d",
    ("classify",): "8cd4eb1cfbf02f07bbef354a0f38fd860af39420acdaae9acf8bc7c67d8bab94",
    ("verify",): "ecd91fb3e8ca4030d8fd4aa289f53ecb47cae4946699010b980b0e1ebbd7ac7b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    dataset = directory / "fruits_vegetables.csv"
    dataset.write_text(fruits_vegetables_csv(), encoding="utf-8")
    report = directory / "report.json"
    assert main(["solve", str(dataset), "-o", str(report)]) == 0
    return report


def test_solve_report_digest(report_path):
    assert _sha256(report_path.read_bytes()) == SOLVE_REPORT


def test_verify_stdout_digest(report_path, capsys):
    capsys.readouterr()
    assert main(["verify", str(report_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_STDOUT


def test_classify_stdout_digest(report_path, capsys):
    capsys.readouterr()
    dataset = report_path.with_name("fruits_vegetables.csv")
    assert main(["classify", str(dataset)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == CLASSIFY_STDOUT


def test_render_file_digests(report_path, capsys):
    out_dir = report_path.with_name("render")
    dataset = report_path.with_name("fruits_vegetables.csv")
    assert main(["render", str(dataset), "-o", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {p.name: _sha256(p.read_bytes()) for p in out_dir.iterdir()}
    assert digests == RENDER_FILES


@pytest.mark.parametrize("command", HELP_STDOUT)
def test_help_stdout_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == HELP_STDOUT[command]
