"""Golden --out bytes: refactors must leave every record byte-identical.

Experiment records carry the CLI run_id, sha256 of command, params and seed.
"""

import hashlib

import pytest

from gilbreath.cli import main

GOLDEN = [
    (("experiment", "collapse", "--M", "2000", "--C", "3", "--trials", "50", "--seed", "3"),
     "7a107e260e6109f9542829d7d6f16722d4c9ad89f6b5969be51295265c01e33c"),
    (("experiment", "collapse", "--M", "2000", "--C", "3", "--trials", "50", "--seed", "3",
      "--weights", "0.6", "0.3", "0.1"),
     "9c2fa7c026f97b6ab66b902dd6569c474aa36d8ec536bc37c2abe8cd9aedfba4"),
    (("experiment", "ultimate-zero", "--C", "3", "--depth", "10", "--trials", "2000",
      "--seed", "3"),
     "95803ef3bb23b76d80f6f1ba6cebd2abfcdc13651b11464e2da76419119ab52c"),
    (("experiment", "leading-term", "--M", "500", "--f", "2", "--trials", "20", "--seed", "3"),
     "6fdd9300e01eb1455070e16cd8dc766ebd8632b5524e178423b2b747fb4cdd2c"),
    (("experiment", "increasing-alphabet", "--M", "1000", "--f", "1:2,500:3", "--trials", "20",
      "--seed", "3"),
     "180b44e1ed7d9afc9d875a93e7d08953caebdfe4652f7a7964a7a8bd31fb6b90"),
    (("primes", "--limit", "100000"),
     "919dd6eacec0145622827cbe19acb59143247c2d4178045f44debfb443c39b14"),
    (("parity", "--depth", "100", "--prob-even", "2,6"),
     "98cfd3f9a69e25e1a0e9013af0859cde9c5aaa09d0715301c719f382a72254e0"),
    # Pins the lift search order: preimage order and the rng.shuffle sequence.
    (("exotic", "--seed-row", "0,0,0,3,3,0,0,0,0,0,0,0", "--cap", "6", "--width", "16"),
     "9b8ffb4613fc2c5aa23b8de8c2fb9f383db78451b014e9e152c1ee438a24947f"),
    # Commands whose triangles run through iterate_until's stop rules.
    (("triangle", "--values", "2,3,5,7,11,13,17"),
     "8daf3354f406834ffbfbfd15bbb65f683246857f217441be0915b92d8028520e"),
    (("triangle", "--values", "3,0,3,0,3,1", "--stop", "stable"),
     "307124ceb2ecb66ccca96a16803f3922d7e7c73ee1a19c7276573373f262ab0b"),
    (("blocks", "--values", "3,0,3,0,3,0,3,1,2,2,0", "--events", "4,2"),
     "7be5ddee48cc176fde34962ab9afe249b72a6ecc47f8ac8b7cbf9839b519c786"),
    # The block report and the max-destruction verdict, one record kind each.
    (("blocks", "--values", "3,0,3,0,3,0,3,1,2,2,0", "--allowed", "0,3", "--witness", "3"),
     "271a00325b7fdc89242159ac21621c684d92b1e040bc3a79885eb052652bbbb9"),
    (("blocks", "--values", "1,0,2,2,2", "--destruction"),
     "de821e45dbdbad4960dfe2296ab0d79b578f5f3d8bae3c3c9f9b95d4825748be"),
    (("bootstrap", "--debruijn", "3,4", "--targets", "0,2", "--length", "12"),
     "69d4bf47ca8ca73b1b4ee58b8821aa81d9170eb23befa9e557be8764d81f39e3"),
    # Every other generated graph source: the cycle remark and seeded random graphs.
    (("bootstrap", "--cycle", "200", "--length", "10", "--c", "1/20"),
     "34d3aee0d2f9ae7d52478d1435884bd03bce3ba8c82aa6a4f009482e23c39e51"),
    (("bootstrap", "--random", "12,3", "--length", "6", "--seed", "5"),
     "754fdf21f2e2f0c58a74bd3bed5955fb2c4c6363f70c158d280970a4aba5c3a3"),
    (("bootstrap", "--random", "40,4", "--red-fraction", "0.7", "--length", "9"),
     "15c7249a229dc0f2f259f67d0d76e667f5e590d59cc3bbc234f3833381feaa38"),
]


# The first two arguments, then the (first) value of --stop, --red-fraction, --weights
# or --allowed if given, and the flag --destruction if given.
IDS = [" ".join(a[:2]) + "".join(f" {a[a.index(opt) + 1]}"
                                 for opt in ("--stop", "--red-fraction", "--weights", "--allowed")
                                 if opt in a) + " --destruction" * ("--destruction" in a)
       for a, _ in GOLDEN]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=IDS)
def test_out_bytes_match_golden(capsys, tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
