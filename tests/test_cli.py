"""Command-line behavior: outputs, exit codes, determinism, env override."""

import csv
import io
import json
import math

import pytest

from renyitail.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def test_rate_gamma_hand_values(capsys):
    code, out, _ = _run(capsys, "rate", "--family", "gamma", "--r", "1", "--c", "0.5")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["upper_rate"]) == pytest.approx(-0.09453, abs=5e-6)
    assert float(row["lower_rate"]) == pytest.approx(-0.19315, abs=5e-6)


def test_rate_iid(capsys):
    code, out, _ = _run(capsys, "rate", "--family", "iid", "--c", "0.9")
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["r"] == "1.0"
    assert float(row["upper_rate"]) == pytest.approx(-0.9 + math.log(1.9), abs=1e-9)


def test_rate_spec_point(capsys):
    code, out, _ = _run(capsys, "rate", "--spec", "exp:gamma=1", "--z", "2.0")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["rate"]) == pytest.approx(1.0 - math.log(2.0), abs=1e-9)


def test_rate_conflicting_modes_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "gamma", "--spec", "exp:gamma=1", "--z", "1.0"])
    assert exc.value.code == 2


def test_rate_c_out_of_domain_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "gamma", "--r", "1", "--c", "1.5"])
    assert exc.value.code == 2


def test_simulate_deterministic(capsys):
    args = ("simulate", "--spec", "exp:gamma=0.5", "--n", "5", "--c", "1", "--seed", "7")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = _parse_csv(out1)
    assert [r["index"] for r in rows] == ["1", "2", "3", "4", "5"]
    w = [float(r["w"]) for r in rows]
    assert w == sorted(w) and w[0] >= 1.0


def test_simulate_rejects_iid_law(capsys):
    code, _, err = _run(capsys, "simulate", "--spec", "hall", "--n", "5", "--c", "1")
    assert code == 1
    assert "spacing law" in err


def test_estimate_hill_hand_value(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "hill",
                        "--k", "2", "--c", "1")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma_hat"]) == pytest.approx(1.03972, abs=5e-6)
    assert row["method"] == "hill"
    assert float(row["lower"]) <= 1.03972 <= float(row["upper"])


def test_estimate_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n4\n8\n"))
    code, out, _ = _run(capsys, "estimate", "--method", "hill", "--k", "2", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-6)


def test_estimate_unsorted_exit_1_with_line(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n4\n2\n8\n")
    code, _, err = _run(capsys, "estimate", str(data), "--method", "hill", "--c", "1")
    assert code == 1
    assert ":3:" in err  # the decreasing pair is reported at line 3


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text, line", [("1\n4\n2\n", 3), ("1\n\n4\n2\n", 4),
                                        ("\n1\n 4\n\n\n3\n5\n", 6)])
def test_estimate_unsorted_reports_the_line(source, text, line, tmp_path, monkeypatch, capsys):
    code, out, err, where = _estimate_from(source, text, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == (f"renyitail: error: {where}:{line}: data decreases here; "
                   "pass --allow-unsorted to sort\n")


def test_estimate_allow_unsorted(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n4\n2\n8\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "hill",
                        "--k", "2", "--c", "1", "--allow-unsorted")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-6)


def test_estimate_bad_number_exit_1(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\nfoo\n")
    code, _, err = _run(capsys, "estimate", str(data), "--c", "1")
    assert code == 1
    assert ":2:" in err


def test_estimate_unreadable_exit_1(capsys):
    code, _, err = _run(capsys, "estimate", "/no/such/file", "--c", "1")
    assert code == 1


def test_estimate_quantile_method(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("\n".join(str(math.exp(0.1 * i)) for i in range(1, 21)) + "\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "quantile",
                        "--s", "0.5", "--c", "1")
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["method"] == "quantile"
    assert row["interval_method"] == "quantile_h"
    assert float(row["gamma_hat"]) == pytest.approx(1.0 / (-math.log(0.5)), rel=1e-9)


def test_estimate_s_out_of_domain_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--method", "quantile", "--s", "1.5", "--c", "1"])
    assert exc.value.code == 2


def test_fit_uniform(tmp_path, capsys):
    data = tmp_path / "w.txt"
    w = [1.0]
    for zhat, coef in zip((0.3, 0.1, 0.2, 0.8, 0.5), (5, 4, 3, 2, 1)):
        w.append(w[-1] * math.exp(zhat / coef))
    data.write_text("\n".join(str(v) for v in w[1:]) + "\n")
    code, out, _ = _run(capsys, "fit", str(data), "--family", "uniform",
                        "--k", "3", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(0.4, rel=1e-9)


def test_fit_gamma_needs_r(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n")
    code, _, err = _run(capsys, "fit", str(data), "--family", "gamma", "--c", "1")
    assert code == 1
    assert "--r" in err


def test_fit_exponential_matches_hill(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    code, out, _ = _run(capsys, "fit", str(data), "--family", "exponential",
                        "--k", "2", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-9)


def test_figure_small_run_csv_meta(capsys):
    code, out, err = _run(capsys, "figure", "--id", "3", "--n", "50", "--reps", "20",
                          "--seed", "9")
    assert code == 0
    assert "# invocation=" in out and "--id 3" in out
    assert "# master_seed=9" in out
    rows = _parse_csv(out)
    assert rows and "k" in rows[0]


def test_figure_json_format(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "ld", "--n", "50", "--reps", "500",
                        "--seed", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "meta" in payload and "rows" in payload
    assert payload["rows"][0]["limit"] is not None


def test_figure_out_file(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, out, _ = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "5",
                        "--seed", "9", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("# ")


def test_figure_spec_override(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "5",
                        "--spec", "exp:gamma=0.25", "--seed", "9")
    assert code == 0
    rows = _parse_csv(out)
    assert "exp:gamma=0.25" in rows[0]


def test_env_seed_overrides_flag(monkeypatch, capsys):
    args = ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "1", "--seed", "7")
    _, baseline, _ = _run(capsys, *args)
    monkeypatch.setenv("RENYI_SEED", "99")
    _, overridden, _ = _run(capsys, *args)
    assert overridden != baseline
    _, env99, _ = _run(capsys, "simulate", "--spec", "exp:gamma=0.5", "--n", "4",
                       "--c", "1", "--seed", "99")
    monkeypatch.delenv("RENYI_SEED")
    _, plain99, _ = _run(capsys, "simulate", "--spec", "exp:gamma=0.5", "--n", "4",
                         "--c", "1", "--seed", "99")
    assert env99.replace("--seed 7", "--seed 99") == plain99


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_bad_spec_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "weibull:gamma=1", "--n", "4", "--c", "1"])
    assert exc.value.code == 2


def test_negative_n_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "exp:gamma=0.5", "--n", "0", "--c", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_figure_non_finite_y_exit_2(y):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--id", "ld", "--y", y])
    assert exc.value.code == 2


def _estimate_from(source, text, tmp_path, monkeypatch, capsys, *flags):
    """Run `estimate` on `text` read from a file or from stdin; returns the name it reports."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path, where = "-", "<stdin>"
    else:
        data = tmp_path / "w.txt"
        data.write_text(text)
        path = where = str(data)
    return (*_run(capsys, "estimate", path, "--c", "1", *flags), where)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text, message", [
    ("1\n\nfoo\n", ":3: not a number: 'foo'"),  # the blank line counts
    ("1\n2\n 4x \n", ":3: not a number: '4x'"),
    ("1\n0\n", ":2: data must be positive and finite"),
    ("1\n-1\n", ":2: data must be positive and finite"),
    ("1\nnan\n", ":2: data must be positive and finite"),
    ("1\n2\ninf\n", ":3: data must be positive and finite"),
    ("0\nfoo\n", ":1: data must be positive and finite"),  # the first bad line wins
    ("foo\n0\n", ":1: not a number: 'foo'"),
    ("", ": no data"),
    (" \n\t\n\n", ": no data"),
])
def test_read_column_messages(source, text, message, tmp_path, monkeypatch, capsys):
    code, out, err, where = _estimate_from(source, text, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == f"renyitail: error: {where}{message}\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_read_column_padding_and_blank_lines(source, tmp_path, monkeypatch, capsys):
    flags = ("--method", "hill", "--k", "2")
    code, plain, _, _ = _estimate_from(source, "1\n2\n4\n8\n", tmp_path, monkeypatch, capsys,
                                       *flags)
    assert code == 0
    for text in ("  1 \n\t2\n4  \n 8\t\n", "\n1\n\n2\n4\n \n8\n\n"):
        code, out, _, _ = _estimate_from(source, text, tmp_path, monkeypatch, capsys, *flags)
        assert code == 0
        assert out.split("\r\n")[1:] == plain.split("\r\n")[1:]  # all but the invocation


IGNORED_FLAGS = [
    (("estimate", "-", "--method", "quantile", "--k", "2", "--c", "1"),
     "--k has no effect with --method quantile"),
    (("estimate", "-", "--method", "quantile", "--interval", "self", "--c", "1"),
     "--interval has no effect with --method quantile"),
    (("estimate", "-", "--method", "ml-uniform", "--interval", "none", "--c", "1"),
     "--interval has no effect with --method ml-uniform"),
    (("estimate", "-", "--s", "0.5", "--c", "1"), "--s has no effect with --method hill"),
    (("estimate", "-", "--method", "ml-uniform", "--s", "0.5", "--c", "1"),
     "--s has no effect with --method ml-uniform"),
    (("fit", "-", "--family", "exponential", "--r", "2", "--c", "1"),
     "--r has no effect with --family exponential"),
    (("fit", "-", "--family", "uniform", "--r", "2", "--c", "1"),
     "--r has no effect with --family uniform"),
    (("rate", "--family", "iid", "--r", "3", "--c", "0.5"), "--r has no effect with --family iid"),
    (("rate", "--spec", "exp:gamma=1", "--z", "2", "--r", "3"), "--r has no effect without --family"),
    (("rate", "--spec", "exp:gamma=1", "--z", "2", "--c", "0.5"),
     "--c has no effect without --family"),
]


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0]))
                                           for case in IGNORED_FLAGS])
def test_ignored_flag_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_flags_the_method_reads_are_accepted(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    for argv in (("--method", "hill", "--k", "3", "--interval", "self"),
                 ("--method", "quantile", "--s", "0.5"),
                 ("--method", "ml-uniform", "--k", "2")):
        code, out, _ = _run(capsys, "estimate", str(data), "--c", "1", *argv)
        assert code == 0
    assert _parse_csv(out)[0]["interval_method"] == "none"
    code, out, _ = _run(capsys, "rate", "--family", "gamma", "--c", "0.5")
    assert code == 0
    assert _parse_csv(out)[0]["r"] == "1.0"


@pytest.mark.parametrize("argv", [
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "inf"),
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "nan"),
    ("estimate", "-", "--c", "inf"),
    ("fit", "-", "--family", "gamma", "--r", "inf", "--c", "1"),
    ("fit", "-", "--family", "exponential", "--c", "inf"),
    ("rate", "--family", "gamma", "--r", "inf", "--c", "0.5"),
    ("rate", "--spec", "exp:gamma=1", "--z", "nan"),
    ("rate", "--spec", "exp:gamma=1", "--z", "inf"),
    ("rate", "--spec", "exp:gamma=1", "--z=-inf"),
], ids=" ".join)
def test_non_finite_float_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
