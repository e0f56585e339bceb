"""Golden CLI output: stdout of the table commands and the verify report.

The hashes pin every byte the CSV commands write (values, column order,
formatting); the verify lines pin the audit report format, the worst
values and their (level, node) locations.  A refactor that keeps the
arithmetic must keep all of them.
"""

import hashlib

import pytest

from liqshock.cli import main

GOLDEN_SHA256 = {
    "solve --I 40":
        "e8dcfd32776760d9b2c6d6210d8acef7a3c98c42adfba3df7e15eb72813d6346",
    "solve --I 60 --grid tavella --scheme linearized --left-bc dirichlet":
        "07a8c32362ac0f5325168162acd1c9a847d7613b1e758cbdba8f7f041f014432",
    "converge --levels 30,60,120":
        "b7db000867873015db2c2aa09c7dd8fa18fd52e56ef346d2e25938d6072c5a92",
    "converge --levels 30,60 --grid tavella --scheme linearized":
        "73bc9f2fdf76d3610738a2c2c99d65ae9f4f935148962255c7324d5a4336ccec",
    "extrapolate --levels 40,80,160":
        "d23dd68fae6bdba2f32d73e66f425b14553fe45c9c1e75efdced088799c68b8d",
    "extrapolate --levels 40,80 --scheme linearized --left-bc dirichlet":
        "8e57107a78d4cad91a65a53624e183d7890db197fba9582529e785a55f5c5149",
}

VERIFY_LINES = {
    "linear": [
        "[FAIL] positivity: worst -7.960e-05 at (level,node)=(3, 0)",
        "[PASS] comparison(h+0.1): worst 1.000e-01 at (level,node)=(7, 114)",
        "[PASS] comparison(call vs 0): worst 0.000e+00 at (level,node)=(0, 0)",
        "[PASS] translation: worst 1.860e-15 at (level,node)=(39, 114)",
        "[PASS] m_matrix: worst 4.800e+01 at (level,node)=(0,)",
        "[PASS] sup_bound: worst 0.000e+00 at (level,node)=(0,)",
    ],
    "linearized": [
        "[FAIL] positivity: worst -5.318e-06 at (level,node)=(4, 9)",
        "[PASS] comparison(h+0.1): worst 1.000e-01 at (level,node)=(4, 113)",
        "[PASS] comparison(call vs 0): worst -1.908e-17 at (level,node)=(6, 12)",
        "[PASS] translation: worst 2.304e-15 at (level,node)=(13, 116)",
        "[PASS] m_matrix: worst 4.880e+01 at (level,node)=(0,)",
        "[PASS] sup_bound: worst 0.000e+00 at (level,node)=(0,)",
    ],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_stdout_hash(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


@pytest.mark.parametrize("scheme", sorted(VERIFY_LINES))
def test_verify_report(scheme, capsys):
    # positivity fails by the known O(dt) dip; the other five audits pass
    code = main(["verify", "--I", "120", "--scheme", scheme])
    assert capsys.readouterr().out.splitlines() == VERIFY_LINES[scheme]
    assert code == 3
