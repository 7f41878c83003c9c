"""Golden digests: the emitted tables are byte-identical across changes.

Each entry pins the SHA-256 of one CLI table with its ``# invocation=`` line
removed (that line echoes the argv and nothing else).  Figures 1, 2 and 3
run at desk scale; ld and t1 run with fewer replications to keep the suite
fast, but still through every stage of their experiments.  A digest may only
change in a commit that means to change the numbers, and says so.
"""

import hashlib

import pytest

from renyitail.cli import main

GOLDEN = {
    ("figure", "--id", "1"):
        "145f7f099a16721746ae0e3005ed96d6610a01a1e0a10095a90031a5388bccc2",
    ("figure", "--id", "2"):
        "48edc1d28e7ba5989cfdc66d23cabbd3774a1976ed7e695604b6e4dd62cdcc3b",
    ("figure", "--id", "3"):
        "27a7939359eed3c796934a8a3df6ce0da12cc37b3a3dcbececb240badca49317",
    ("figure", "--id", "t1", "--reps", "2000"):
        "5e1c626b11d671837475df988a753e39fdd59522df8b57524f8a480932efabcd",
    ("figure", "--id", "ld", "--reps", "20000"):
        "2c07f3ab1a04f7e88a4b957686aed11351a026ac46aa8dfc20f8675546daf699",
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11"):
        "a367e1eee0d7af9545bd15596f77994a3e6e4dceb5cb09f2db2c97c8cdd8e976",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_table_digest(argv, monkeypatch, capsys):
    monkeypatch.delenv("RENYI_SEED", raising=False)
    assert main(list(argv)) == 0
    text = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                   if not line.startswith("# invocation="))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[argv]
