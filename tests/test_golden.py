"""Golden --out bytes: refactors of the kernels must leave every record byte-identical."""

import hashlib

import pytest

from gilbreath.cli import main

GOLDEN = [
    (("experiment", "collapse", "--M", "2000", "--C", "3", "--trials", "50", "--seed", "3"),
     "e648dc6c8f0eabc767adf9652bbff952fb21360e62489346d9b8a1fdb9ea5f16"),
    (("experiment", "ultimate-zero", "--C", "3", "--depth", "10", "--trials", "2000",
      "--seed", "3"),
     "9d107a3af752d2621fdf856730b4035bb857ebac8374665590128366c337f1ef"),
    (("experiment", "leading-term", "--M", "500", "--f", "2", "--trials", "20", "--seed", "3"),
     "256fc657c6e73470eef7c98a612d0558b65c30deb18f3eb740b5782c38197064"),
    (("experiment", "increasing-alphabet", "--M", "1000", "--f", "1:2,500:3", "--trials", "20",
      "--seed", "3"),
     "329e922107798534e36a09d384da26389b005a27ec70744f010f043e679416a0"),
    (("primes", "--limit", "100000"),
     "919dd6eacec0145622827cbe19acb59143247c2d4178045f44debfb443c39b14"),
    (("parity", "--depth", "100", "--prob-even", "2,6"),
     "98cfd3f9a69e25e1a0e9013af0859cde9c5aaa09d0715301c719f382a72254e0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_out_bytes_match_golden(capsys, tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
