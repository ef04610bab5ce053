"""The bundled outputs, pinned by SHA-256 digest.

Each command runs in-process on `configs/heat_default.cfg`, and what it
prints or writes is hashed: `validate` stdout at p = 2 and p = 4,
`gramian.csv`, `simulate`'s `trajectory.csv` with both coefficient flags,
and the p = 2 sweep's CSVs and `summary.json` (without `elapsed_seconds`,
the one field that is a clock reading).  A change that is not meant to move
a number keeps every digest; one that is re-pins them and lists the moved
files in CHANGES.md.  The last bits of a float may move with numpy's
version, so on another version the test skips.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fracheat.cli import main

BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "heat_default.cfg"

NUMPY_VERSION = "2.4.6"
PINNED = {
    "validate p=2 stdout":
        "7dc11538b43932d27939511712e4e2e035db5de0780ff02b814d652e71a2ac66",
    "validate p=4 stdout":
        "b88010c3ed8b873bbda7f5cc776e147ed195a888b6885780f367c1120a8652ca",
    "gramian.csv":
        "664e07611c2be6115cbf3adc9de704ac61e17cdc8037fd131f2abf544d447ad9",
    "trajectory.csv":
        "4d17b4cd82a8fd7ff41b7e53e2f6dfd8d687c76eb262d7b42e847e634cf7d194",
    "sweep.csv":
        "2178c44ee047548fe897e32bb20b2582264e816d3728cc2aa6baede691718ad5",
    "summary.json":
        "7e8a921343bb5d696a82f1c31f5b8751816aef3137c33d8f31668ba02ea53b56",
    "trajectory_eps_1e-1.csv":
        "6c917ad68f3416dc4acb0de161050555167b1f0d0ee22101b91e32400c4888bc",
    "trajectory_eps_1e-2.csv":
        "7f9027c6456a5ee18b5ebb844d6161e378c737812dc7d0cf1ada8592c46b32d3",
    "trajectory_eps_1e-3.csv":
        "ebb76f5271d53d34a84e1a4dc2ac4b6b50ad646ed5f6523a0bec908e7989b98f",
    "trajectory_eps_1e-4.csv":
        "eaa461e0f6da1dc5eaf33d239722e6d393494566d422e563b77e34aba9e0f37b",
    "control_eps_1e-1.csv":
        "daea90c265883d95b5c327ddc568918c7581bea084dd887236bae996e098cd18",
    "control_eps_1e-2.csv":
        "7ba53d6b4c02f1012d19cd94ced0085418d5c3f2cc804aff5284c88135ef8e20",
    "control_eps_1e-3.csv":
        "fa7cc9ed01c6a24be1b691873365af30ac2748aa1c888ad9cdcc9d44a38b5f01",
    "control_eps_1e-4.csv":
        "f852ecfdf503e8459283c4fd0435c69c349803f327d60c35684b58bf826def01",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bundled_digests(tmp_path) -> dict[str, str]:
    """Digest of each pinned output of the bundled config, run in `tmp_path`."""
    cfg = tmp_path / BUNDLED.name
    cfg.write_text(BUNDLED.read_text())
    out = tmp_path / "out"
    digests = {}
    for p in ("2", "4"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["validate", str(cfg), "--set", f"model.p={p}"]) == 0
        digests[f"validate p={p} stdout"] = sha256(stdout.getvalue().encode())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gramian", str(cfg)]) == 0
        assert main(["simulate", str(cfg), "--forcing-coeffs", "0.4,0.1",
                     "--control-coeffs", "0.2,-0.1"]) == 0
        assert main(["sweep", str(cfg)]) == 0
    for path in sorted(out.glob("*.csv")):
        digests[path.name] = sha256(path.read_bytes())
    summary = json.loads((out / "summary.json").read_text())
    del summary["elapsed_seconds"]
    digests["summary.json"] = sha256(json.dumps(summary, indent=2, sort_keys=True).encode())
    return digests


def test_bundled_outputs_match_their_pinned_digests(tmp_path):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests pinned with numpy {NUMPY_VERSION}, running {np.__version__}")
    assert bundled_digests(tmp_path) == PINNED
