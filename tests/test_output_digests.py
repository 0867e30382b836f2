"""Outputs pinned by sha256 digest, so that a refactor that changes any
byte of a report, witness or demo printout fails here.

The digests were computed on the code before the element index became
the only element identity inside the library; the Coxeter commands added
later were computed on the code before generator tables replaced model
arithmetic inside ``coxeter``, and the Bruhat exports of B5, D5, A5 and
I2:7 on the code before the covers came from the lifting recursion in
place of the reflection criterion. A deliberate change of an output must
update its digest here and say why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zircons import run_sweep
from zircons.cli import main

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    "coxeter B3 zircon-check": "99ab36eb839d450cf868b0f7f80e392f55a48779d7246e435222836b24ed8e95",
    "coxeter A4 twisted flip": "66d227f703333e7844ca14bddda58371d7e69e86f7cf1e1d9433fe68cf54e29c",
    "coxeter B4 twisted id": "fcd35937c201255b4c21294eddffa45f9b43a85cdf35033d31c95e9794e8c1a2",
    "coxeter D4 twisted flip": "4989e35f13a737bfdc17a8bdbb41ce346aa6160a3624649fbc0343b3e0c0416f",
    "coxeter A3 fix-check flip --against B2": "adab0e4a97547c02ef071748358fa6e1263acd9cfe10a79b9c724b1c14f1973c",
    "coxeter D4 zircon-check": "a7bd98eb3c42aa3ad019eb5520ff51aa8fe6f91f5af7328c3966353f01c27111",
    "coxeter D5 zircon-check": "271f10b2ff3d3843c92e9c6f505a661152771f53347684c8500b02da0098c392",
    "coxeter A3 export": "4f2b740a2800d5b114960fe1ff141b565268c876edbddd3824f6fee052d54049",
    "coxeter D4 export --format dot": "f27d31ef01c4d9876af92d7ce8d351181521968ee6496a5c623ac4bd70ab6b55",
    "coxeter B5 export": "8b0934257a4f4958292f931ff26a8d8ccdd4bd8116f0189e2f64032b404382bb",
    "coxeter D5 export": "6c5962b4ee25e8ed32b0c372120b41607e4f3fb3bd9fd4107176d05d4398562c",
    "coxeter A5 export --format dot": "1c011ea6b1252efe27a4ed9258b66625ef42a16ede932993ab6880a2258ae236",
    "coxeter I2:7 export": "bfab04df73ad73d750373d9f738be7cd90479912147cf3e3465c1620a281d27c",
    "coxeter I2:8 twisted flip": "ed6e7cfc7611ef9587b16c0b14b767f68cd17042a25aabe4a4c116fcb771ba04",
    "coxeter A3 twisted s1:s3,s3:s1": "0dd66350187a068991ff6ac77051c54d1fac5a528a22fef8b1511527954a0b9a",
    "coxeter D4 fix-check s1:s2,s2:s4,s4:s1 --against I2:6": "a5e8d2668b6cc66987db5e50a9ed0d944711dd39e9c0fe13a0401378ddf54658",
    # exit 2: the digest covers the error message on stderr
    "coxeter B3 twisted flip": "7e76a5911238348df101137d01b03e1352e34a55375eb5207c968b2f4f07a7db",
    "coxeter D4 twisted s1:s2,s2:s4,s4:s1": "5abf6077396570e77859162b755c090cd9559a1b6275b17b834c3fa2e4ef1b10",
}

DEMOS = {
    "01_posets.py": "dea357ddc6d44a650746a599f144d454094e81ef69fd5ed96205dcf0fe4bc7fa",
    "02_special_matchings.py": "e68a15a9eca99f305de3a6417f2a39065f40efbc5c695b76e01aa455ca4fb960",
    "03_fixed_points.py": "b4fa4870e9de2e4b877d6e703be0473ebe29c2dc6374a287fa750fe87ee05b5e",
    "04_coxeter.py": "638f77258505f179cfcfb9221aaf711641e6693e4b52d4ec4b18c368da9565f1",
    "05_corpus_sweep.py": "9bf474df701dd3558fc40e67aac095e9f488d68a890ed6227c2a792c3173e565",
}

SWEEP_MAX_5 = "c60a7946c61839a4e3d26e8c8e8a1909d18a5ab1f230ceefaab10d9ecbefc64d"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_report_digest():
    """Canonical JSON (sorted keys, no spaces) of the exhaustive max_n=5
    report, without the wall-clock field."""
    report = run_sweep({"mode": "exhaustive", "max_n": 5}, jobs=1).to_dict()
    del report["duration_seconds"]
    assert _sha256(json.dumps(report, sort_keys=True, separators=(",", ":"))) == SWEEP_MAX_5


@pytest.mark.parametrize("command", sorted(COMMANDS), ids=lambda c: c.replace(" ", "_"))
def test_command_digest(command, capsys):
    """The stdout and then the stderr of ``zircons <command>``, prefixed
    with its exit code."""
    rc = main(command.split())
    out, err = capsys.readouterr()
    assert _sha256(f"rc={rc}\n" + out + err) == COMMANDS[command]


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_digest(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert _sha256(f"rc={result.returncode}\n" + result.stdout) == DEMOS[demo]
