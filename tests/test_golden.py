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
    ("figure", "--id", "1"):
        "145f7f099a16721746ae0e3005ed96d6610a01a1e0a10095a90031a5388bccc2",
    ("figure", "--id", "2"):
        "48edc1d28e7ba5989cfdc66d23cabbd3774a1976ed7e695604b6e4dd62cdcc3b",
    ("figure", "--id", "3"):
        "27a7939359eed3c796934a8a3df6ce0da12cc37b3a3dcbececb240badca49317",
    ("figure", "--id", "t1", "--reps", "2000"):
        "5e1c626b11d671837475df988a753e39fdd59522df8b57524f8a480932efabcd",
    ("figure", "--id", "ld", "--reps", "20000"):
        "33e3050152b999fdb470e4b18993edcf10f82cee22874942842c7dcae391569a",
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11"):
        "a367e1eee0d7af9545bd15596f77994a3e6e4dceb5cb09f2db2c97c8cdd8e976",
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "1000", "--seed", "11", "--format", "json"):
        "793fbe4f708e8550dc86053f6649fafd424b0c40046c6d8db7671dc1dd203d61",
    ("figure", "--id", "3", "--format", "json"):
        "a8eb979606eac32d8533220e9d115710e48405b0fc9f9e89a1ec43a1626e7e62",
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
