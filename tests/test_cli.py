import os

import numpy as np
import pytest

from revem.channel_io import (ChannelFormatError, format_classical, format_cq,
                              format_wiretap, parse_classical, parse_cq,
                              parse_wiretap, template)
from revem import cli
from revem.cli import main
from revem.classical import Channel, capacity_general
from revem.cq import CQChannel, _regularize
from revem.wiretap import WiretapChannel


def test_templates():
    assert template("identity:3").matrix.shape == (3, 3)
    assert template("bsc:0.1").matrix[0, 0] == pytest.approx(0.9)
    assert template("chan1:0.1").matrix.shape == (4, 4)
    with pytest.raises(ChannelFormatError.__bases__[0]):
        template("nope:1")


def test_classical_roundtrip_and_errors():
    ch = template("chan1:0.3")
    again = parse_classical(format_classical(ch))
    assert np.allclose(again.matrix, ch.matrix)
    with pytest.raises(ChannelFormatError):
        parse_classical("0.6,0.3\n0.3,0.7\n")
    with pytest.raises(ChannelFormatError):
        parse_classical("# n1=3 n2=2\n0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ChannelFormatError):
        parse_classical("0.5,abc\n0.5,0.5\n")


def test_wiretap_roundtrip():
    tensor = np.einsum("zy,yx->xzy", np.array([[0.8, 0.3], [0.2, 0.7]]),
                       np.array([[0.9, 0.2], [0.1, 0.8]]))
    ch = WiretapChannel(tensor)
    again = parse_wiretap(format_wiretap(ch))
    assert np.allclose(again.tensor, ch.tensor)
    with pytest.raises(ChannelFormatError):
        parse_wiretap("0.5,0.5\n0.5,0.5\n")  # missing header


def test_cq_roundtrip(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    ch = CQChannel(_regularize(np.array([rho, np.eye(2) / 2]), 1e-9))
    again = parse_cq(format_cq(ch))
    assert np.max(np.abs(again.states - ch.states)) < 1e-12
    with pytest.raises(ChannelFormatError):
        parse_cq("# n1=1 dim=2\n1 0 0 0\n0 0 0.1 0\n")  # not Hermitian


def test_capacity_command(capsys):
    code = main(["capacity", "--template", "identity:2", "--method", "ba"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.69314718056 nats" in out
    assert "(1 bits)" in out

    code = main(["capacity", "--template", "chan1:0.1",
                 "--method", "noniterative"])
    assert code == 0
    assert "negative_support: (empty)" in capsys.readouterr().out


def test_capacity_cross_method_in_process(capsys):
    main(["capacity", "--template", "chan1:0.1", "--method", "noniterative"])
    non_it = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    main(["capacity", "--template", "chan1:0.1", "--method", "ba",
          "--tol", "1e-11"])
    ba = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert abs(non_it - ba) < 1e-6


def test_capacity_bad_file(tmp_path, capsys):
    bad = tmp_path / "w.csv"
    bad.write_text("0.6,0.3\n0.3,0.7\n")
    code = main(["capacity", "--in", str(bad)])
    assert code == 2
    code = main(["validate", "--kind", "classical", "--in", str(bad)])
    assert code == 2
    code = main(["capacity"])
    assert code == 2


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, word):
    with pytest.raises(ChannelFormatError, match="non-finite") as err:
        parse_classical(f"0.5,{word}\n0.5,0.5\n")
    assert (err.value.line, err.value.column) == (1, 2)
    with pytest.raises(ChannelFormatError, match="non-finite"):
        parse_wiretap(f"# n1=2 n2=1 n3=2\n0.5,0.5\n0.5,{word}\n")
    with pytest.raises(ChannelFormatError, match="non-finite"):
        parse_cq(f"# n1=1 dim=2\n0.5 0 0 0\n0 0 {word} 0\n")

    bad = tmp_path / "w.csv"
    bad.write_text(f"{word},0.5\n0.5,0.5\n")
    for method in ("noniterative", "iterative", "em", "ba"):
        assert main(["capacity", "--in", str(bad), "--method", method]) == 2
    assert main(["validate", "--in", str(bad)]) == 2
    assert "non-finite" in capsys.readouterr().err

    # "--opt=value", since argparse reads a bare "-inf" as an option name
    assert main(["capacity", "--template", "bsc:0.1", f"--tol={word}"]) == 2
    for args in ([f"--range={word}:0.4:0.1"], [f"--range=0:{word}:0.1"],
                 [f"--range=0:0.4:{word}"], ["--range=0:0.4:0.1", f"--tol={word}"]):
        assert main(["sweep", "--template", "bsc", *args]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(format_classical(template("chan1:0.1")))
    assert main(["validate", "--kind", "classical", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n1=4 n2=4" in out

    tensor = np.einsum("zy,yx->xzy", np.array([[0.8, 0.3], [0.2, 0.7]]),
                       np.array([[0.9, 0.2], [0.1, 0.8]]))
    wt = tmp_path / "wt.csv"
    wt.write_text(format_wiretap(WiretapChannel(tensor)))
    assert main(["validate", "--kind", "wiretap", "--in", str(wt)]) == 0
    assert "degraded: True" in capsys.readouterr().out

    # non-degraded file still validates (exit 0) but warns
    bad_tensor = np.einsum("zx,yz->xzy", np.array([[0.95, 0.05], [0.05, 0.95]]),
                           np.array([[0.7, 0.3], [0.3, 0.7]]))
    wt2 = tmp_path / "wt2.csv"
    wt2.write_text(format_wiretap(WiretapChannel(bad_tensor)))
    assert main(["validate", "--kind", "wiretap", "--in", str(wt2)]) == 0
    assert "warning" in capsys.readouterr().out


def test_sweep_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    env = dict(os.environ)
    try:
        os.environ["REVEM_THREADS"] = "1"
        assert main(["sweep", "--template", "chan1", "--param", "t",
                     "--range", "0:0.08:0.02", "--method", "noniterative",
                     "--out", str(out1)]) == 0
        os.environ["REVEM_THREADS"] = "2"
        assert main(["sweep", "--template", "chan1", "--param", "t",
                     "--range", "0:0.08:0.02", "--method", "noniterative",
                     "--out", str(out2)]) == 0
    finally:
        os.environ.clear()
        os.environ.update(env)
    text1, text2 = out1.read_text(), out2.read_text()
    assert text1 == text2
    lines = text1.strip().splitlines()
    assert lines[0] == "t,capacity_nats,px_1,px_2,px_3,px_4,support_mask,status"
    assert len(lines) == 6
    assert all(line.endswith("ok") for line in lines[1:])
    assert all(line.split(",")[6] == "1111" for line in lines[1:])


def test_chan1_near_duplicate_columns_on_the_default_route(capsys, monkeypatch):
    # At t = 0.85 inputs 1, 2 and 4 differ by the rounding of 0.9 - 0.85
    # (4.2e-17); they are merged, and the value is that of the channel with
    # the merge made explicitly.
    merged = capacity_general(Channel(template("chan1:0.85").matrix[:, [0, 2]]))
    assert main(["capacity", "--template", "chan1:0.85"]) == 0
    out = capsys.readouterr().out
    assert f"capacity: {cli._fmt(merged.capacity)} nats" in out
    monkeypatch.setenv("REVEM_THREADS", "1")
    assert main(["sweep", "--template", "chan1", "--range", "0.849:0.851:0.0005"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.849", "0.8495", "0.85", "0.8505", "0.851"]
    assert all(row[-1] == "ok" for row in rows)
    assert rows[2][1] == cli._fmt(merged.capacity)


def test_sweep_point_count_is_bounded(capsys, monkeypatch):
    # The bound is checked before any point is built: a range one point over
    # it, or one whose point count overflows, never reaches _sweep_point.
    def built(payload):
        raise AssertionError("a sweep point was built")

    monkeypatch.setattr(cli, "_sweep_point", built)
    bound = cli.MAX_SWEEP_POINTS
    assert main(["sweep", "--template", "bsc", "--range", "0:1e308:1e-300"]) == 2
    assert main(["sweep", "--template", "bsc", "--range", f"0:{bound}:1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --range gives more than {bound} points"] * 2


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_non_positive_tol_is_rejected(capsys, monkeypatch, tol):
    # Rejected before any channel is solved: at --tol=-1 Blahut-Arimoto would
    # run its whole iteration cap.
    def solved(*args):
        raise AssertionError("a channel was solved")

    monkeypatch.setattr(cli, "_compute", solved)
    monkeypatch.setenv("REVEM_THREADS", "1")
    assert main(["capacity", "--template", "bsc:0.1", "--method", "ba",
                 f"--tol={tol}"]) == 2
    assert main(["sweep", "--template", "bsc", "--range", "0:0.4:0.1",
                 f"--tol={tol}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --tol must be finite and positive"] * 2


def test_sweep_workers_are_capped_at_cpu_count(capsys, monkeypatch):
    # A fake pool records the worker count asked for and maps serially, so
    # no process is started.
    requested = []

    class FakePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["sweep", "--template", "bsc", "--range", "0:0.4:0.1"]
    for threads, expected in (("5000", [2]), ("1", []), ("", [2])):
        requested.clear()
        monkeypatch.setenv("REVEM_THREADS", threads)
        assert main(args) == 0
        assert requested == expected
    assert capsys.readouterr().out.count("\n") == 3 * 6


def test_wiretap_and_cq_commands(tmp_path, capsys):
    tensor = np.einsum("zy,yx->xzy", np.array([[0.9, 0.2], [0.1, 0.8]]),
                       np.array([[0.82, 0.25], [0.18, 0.75]]))
    wt = tmp_path / "wt.csv"
    wt.write_text(format_wiretap(WiretapChannel(tensor)))
    assert main(["capacity", "--kind", "wiretap", "--in", str(wt),
                 "--method", "iterative"]) == 0
    cap_it = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert main(["capacity", "--kind", "wiretap", "--in", str(wt),
                 "--method", "oracle"]) == 0
    cap_or = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert abs(cap_it - cap_or) < 1e-5

    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    ch = CQChannel(_regularize(np.array([rho, np.eye(2) / 2]), 1e-9))
    cq_file = tmp_path / "cq.txt"
    cq_file.write_text(format_cq(ch))
    assert main(["capacity", "--kind", "cq", "--in", str(cq_file),
                 "--method", "noniterative"]) == 0
    cap_ni = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert main(["capacity", "--kind", "cq", "--in", str(cq_file),
                 "--method", "oracle"]) == 0
    cap_or = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert abs(cap_ni - cap_or) < 1e-6
    assert main(["validate", "--kind", "cq", "--in", str(cq_file)]) == 0


def test_empty_and_one_dimensional_cq_files_are_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# n1=0 dim=2\n")
    scalar = tmp_path / "scalar.txt"
    scalar.write_text("# n1=2 dim=1\n1 0\n1 0\n")
    methods = ("noniterative", "iterative", "oracle")
    for method in methods:
        assert main(["capacity", "--kind", "cq", "--in", str(empty),
                     "--method", method]) == 2
    assert main(["validate", "--kind", "cq", "--in", str(empty)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(methods) + 1
    assert all(line.startswith("error: ") and "nonempty" in line for line in err)

    # One-dimensional states are a valid channel of capacity zero: validate
    # and the oracle accept it; the split and the geometry reject it.
    for method in ("noniterative", "iterative"):
        assert main(["capacity", "--kind", "cq", "--in", str(scalar),
                     "--method", method]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and "dimension at least two" in line
               for line in err)
    assert main(["validate", "--kind", "cq", "--in", str(scalar)]) == 0
    assert main(["capacity", "--kind", "cq", "--in", str(scalar),
                 "--method", "oracle"]) == 0
    assert _field(capsys.readouterr().out, "capacity") == 0.0


def test_em_method_command(capsys):
    assert main(["capacity", "--template", "bsc:0.15", "--method", "em"]) == 0
    out = capsys.readouterr().out
    cap = float(out.split("capacity: ")[1].split()[0])
    p = 0.15
    analytic = np.log(2) + p * np.log(p) + (1 - p) * np.log(1 - p)
    assert abs(cap - analytic) < 1e-8


def _field(out, name):
    return float(out.split(f"{name}: ")[1].split()[0])


def test_em_reports_intersection_residual(capsys):
    assert main(["capacity", "--template", "chan1:0.5", "--method", "em"]) == 0
    out = capsys.readouterr().out
    assert _field(out, "residual") <= 1e-8
    assert main(["capacity", "--template", "chan1:0.5",
                 "--method", "noniterative"]) == 0
    assert abs(_field(out, "capacity")
               - _field(capsys.readouterr().out, "capacity")) <= 1e-9


def test_em_without_intersection_exits_noconv(capsys):
    # past the support transition the supremum is not attained
    assert main(["capacity", "--template", "chan1:0.76", "--method", "em"]) == 3
    assert "capacity: nan" in capsys.readouterr().out


def test_validate_accepts_eve_merging_bob_outputs(tmp_path, capsys):
    # Eve sees Bob's outputs 2 and 3 merged, so the map T has zeros.
    w_y = np.array([[0.5, 0.1], [0.3, 0.3], [0.2, 0.6]])
    tensor = np.einsum("zy,yx->xzy", np.array([[1.0, 0, 0], [0, 1, 1]]), w_y)
    wt = tmp_path / "wt.csv"
    wt.write_text(format_wiretap(WiretapChannel(tensor)))
    assert main(["validate", "--kind", "wiretap", "--in", str(wt)]) == 0
    assert "degraded: True" in capsys.readouterr().out


def test_three_input_wiretap_oracle_command(tmp_path, capsys):
    w_y = np.array([[0.7, 0.1, 0.2], [0.2, 0.6, 0.1], [0.1, 0.3, 0.7]])
    tensor = np.einsum("zy,yx->xzy", np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5]]), w_y)
    wt = tmp_path / "wt3.csv"
    wt.write_text(format_wiretap(WiretapChannel(tensor)))
    assert main(["capacity", "--kind", "wiretap", "--in", str(wt),
                 "--method", "oracle"]) == 0
    cap_or = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert main(["capacity", "--kind", "wiretap", "--in", str(wt),
                 "--method", "iterative"]) == 0
    cap_it = float(capsys.readouterr().out.split("capacity: ")[1].split()[0])
    assert abs(cap_it - cap_or) < 1e-6


def test_every_wiretap_method_checks_degradedness(tmp_path, capsys):
    # The same non-degraded channel as in test_validate_ok: the oracle would
    # otherwise print a value of a secrecy formula that does not apply.
    bad_tensor = np.einsum("zx,yz->xzy", np.array([[0.95, 0.05], [0.05, 0.95]]),
                           np.array([[0.7, 0.3], [0.3, 0.7]]))
    wt = tmp_path / "wt.csv"
    wt.write_text(format_wiretap(WiretapChannel(bad_tensor)))
    for method in ("oracle", "iterative"):
        assert main(["capacity", "--kind", "wiretap", "--in", str(wt),
                     "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("error: channel fails the X-Y-Z degradedness check")


@pytest.mark.parametrize("kind, method", [("wiretap", "noniterative"),
                                          ("wiretap", "ba"), ("cq", "ba")])
def test_unavailable_methods_exit_2(tmp_path, capsys, kind, method):
    if kind == "wiretap":
        text = format_wiretap(WiretapChannel(np.einsum(
            "zy,yx->xzy", np.array([[0.8, 0.3], [0.2, 0.7]]),
            np.array([[0.9, 0.2], [0.1, 0.8]]))))
    else:
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        text = format_cq(CQChannel(np.array([rho, np.eye(2) / 2])))
    path = tmp_path / "channel.txt"
    path.write_text(text)
    assert main(["capacity", "--kind", kind, "--in", str(path),
                 "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: method {method!r} not available for {kind}\n"
