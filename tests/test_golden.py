"""Golden digests: the emitted tables are byte-identical across changes.

Each entry pins the SHA-256 of one CLI table with its ``# invocation=`` line
removed (that line echoes the argv and nothing else).  Figures 1, 2 and 3
run at desk scale; ld and t1 run with fewer replications to keep the suite
fast, but still through every stage of their experiments.  The estimate and
fit tables are read from the pinned simulate sample.  A JSON table holds
its invocation inside its meta object, so its digest covers the argv too.  A digest may only
change in a commit that means to change the numbers, and says so.
"""

import csv
import hashlib

import pytest

from renyitail.cli import main

GOLDEN = {
    # each figure digest moved once when the config line lost its avg_seeds and scale_c
    # keys, with every row unchanged; figures 1 and t1 moved once more, by roundoff in
    # the last bits, when they began to build x through generalized_renyi (a division
    # where they had multiplied by the reciprocal); figure 2 moved once more, by roundoff
    # in its spacing-law columns, when it began to take the log-spacings as differences
    # of x instead of logs of w = exp(x); CHANGES.md lists the old and new digests
    ("figure", "--id", "1"):
        "45ba703f30e87ffe1299ffacd935aaa76d4464c78c9583ffaf9a6d228555c851",
    ("figure", "--id", "2"):
        "29a7b4db1be52e2f621b8c133c66ea1b23c6ad118e93e3c6a99031478a3c3599",
    ("figure", "--id", "3"):
        "02e2a3714b0963a2e891e2c0f83397956b1066bdc4de7b9a3bb75dd392fa732e",
    ("figure", "--id", "t1", "--reps", "2000"):
        "4483ba03dfdc61248207dd7ba3a7376639d41058d5d4ec901fd4607cca14d23d",
    ("figure", "--id", "ld", "--reps", "20000"):
        "d933e23720095c239be3203467248905c94b036c46308a6a6d6d8acaa0527868",
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11"):
        "a367e1eee0d7af9545bd15596f77994a3e6e4dceb5cb09f2db2c97c8cdd8e976",
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11", "--format", "json"):
        "793fbe4f708e8550dc86053f6649fafd424b0c40046c6d8db7671dc1dd203d61",
    ("figure", "--id", "3", "--format", "json"):
        "cdd5517c6ae8dfbff0aecd738877f2609fbc289f322c64919e33848637b22a04",
}


ESTIMATES = {
    ("estimate", "--method", "hill", "--c", "1"):
        "2b4f19f03921d8ecb4777c3583f762dac9d15b5f4f58308d6013c4c563301a72",
    ("estimate", "--method", "quantile", "--c", "1"):
        "0c873856d0a462adf5fbe335b2a0d20906b7c20107970829c310f1fc454272f9",
    ("estimate", "--k", "200", "--interval", "self", "--c", "1"):
        "a51ebe129657ad0baf1aeb3de2c5e571693172c81ab5c6969f2bf75a49ae8c36",
    ("fit", "--family", "gamma", "--r", "2", "--c", "1"):
        "e1f24a1756880051817f0dd8248cf69a1286730f5a9bbc2792bf01bc7c76b164",
    ("estimate", "--method", "ml-uniform", "--k", "200", "--c", "1"):
        "d5d35243d22794c3e121014369d85bc2629332fc25112776e4230e8dcc980c48",
    ("estimate", "--k", "200", "--interval", "none", "--c", "1"):
        "3415e952830a191e6d153d53a114d8219b1bef21730f7bf72396d4a4a921efb4",
}


def _digest(capsys) -> str:
    text = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                   if not line.startswith("# invocation="))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def simulated_w(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    table = tmp / "simulate.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RENYI_SEED", raising=False)
        assert main(["simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11",
                     "--out", str(table)]) == 0
    rows = csv.DictReader(line for line in table.read_text().splitlines()
                          if not line.startswith("#"))
    data = tmp / "w.txt"
    data.write_text("".join(row["w"] + "\n" for row in rows))
    return str(data)


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_table_digest(argv, monkeypatch, capsys):
    monkeypatch.delenv("RENYI_SEED", raising=False)
    assert main(list(argv)) == 0
    assert _digest(capsys) == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(ESTIMATES), ids=" ".join)
def test_estimate_digest(argv, simulated_w, capsys):
    assert main([argv[0], simulated_w, *argv[1:]]) == 0
    assert _digest(capsys) == ESTIMATES[argv]
