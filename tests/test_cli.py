import pytest

from squashcube.cli import main
from squashcube.graphs import connected_graphs, emit_graph6, random_graph
from squashcube.constructions import PreconditionError, random_partition, k_threshold


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_address_johnson_5_2(tmp_path, capsys):
    out_file = tmp_path / "j52.addr"
    code, _, _ = run(capsys, "address", "johnson", "-n", "5", "-k", "2", "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "r=2 len=6 n=10"
    assert len(lines) == 11


def test_address_johnson_4_1_rows(capsys):
    code, out, _ = run(capsys, "address", "johnson", "-n", "4", "-k", "1")
    assert code == 0
    words = [line.split("\t")[1] for line in out.splitlines()[1:]]
    assert words == ["000", "100", "*10", "**1"]


def test_address_johnson_trivial(capsys):
    code, out, _ = run(capsys, "address", "johnson", "-n", "3", "-k", "3")
    assert code == 0
    assert out.splitlines()[0] == "r=2 len=0 n=1"


def test_address_blowup_default_base(capsys):
    code, out, _ = run(capsys, "address", "blowup", "-a", "2", "-m", "2", "-s", "3")
    assert code == 0
    assert out.splitlines()[0] == "r=2 len=8 n=12"


def test_address_blowup_fixture_base(tmp_path, capsys):
    out_file = tmp_path / "k48.addr"
    code, _, _ = run(capsys, "address", "blowup", "-a", "4", "-m", "4", "-s", "2",
                     "--base", "fixture:kam/k4m4", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "r=2 len=29 n=32"


def test_address_plus3(capsys):
    code, out, _ = run(capsys, "address", "plus3", "--base", "fixture:multipartite/k_2_2_1",
                       "--classes", "2,2,1")
    assert code == 0
    assert out.splitlines()[0] == "r=2 len=6 n=8"


def test_verify_fixture_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "j63.addr"
    code, _, _ = run(capsys, "address", "johnson", "-n", "6", "-k", "3", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "johnson", "6", "3", str(out_file))
    assert code == 0 and out.startswith("valid")


def test_verify_cycle_fixture_r3(tmp_path, capsys):
    from squashcube.addressing import format_addressing
    from squashcube.fixtures import load_fixture

    adr, _ = load_fixture("cycles/c19_r3")
    path = tmp_path / "c19.addr"
    path.write_text(format_addressing(adr))
    code, out, _ = run(capsys, "verify", "cycle", "19", str(path))
    assert code == 0 and out.startswith("valid")


def test_verify_flags_corruption(tmp_path, capsys):
    path = tmp_path / "bad.addr"
    path.write_text("r=2 len=3 n=4\n0\t000\n1\t100\n2\t*10\n3\t*11\n")
    code, out, _ = run(capsys, "verify", "johnson", "4", "1", str(path))
    assert code == 1
    assert "violation" in out


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.addr"
    path.write_text("not a header\n")
    code, _, err = run(capsys, "verify", "complete", "2", str(path))
    assert code == 2 and "error" in err


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "kam", "5", "5", "--r", "2")
    assert code == 0
    assert out.splitlines()[1].split("\t")[-1] == "20"
    code, out, _ = run(capsys, "bound", "petersen")
    assert out.splitlines()[1].split("\t")[-1] == "5"
    code, out, _ = run(capsys, "bound", "complete", "2")
    assert out.splitlines()[1].split("\t")[-1] == "1"


def test_solve_cycles(capsys):
    code, out, _ = run(capsys, "solve", "cycle", "9", "--r", "3")
    assert code == 0 and out.startswith("N_3 = 5")
    code, out, _ = run(capsys, "solve", "complete", "3")
    assert code == 0 and out.startswith("N_2 = 2")


def test_solve_certificate_is_emitted(capsys):
    code, out, _ = run(capsys, "solve", "cycle", "5", "--r", "3", "--certificate")
    assert code == 0
    assert "r=3 len=3 n=5" in out


def test_solve_certificate_prints_and_output_writes(tmp_path, capsys):
    out_file = tmp_path / "c5.addr"
    code, out, _ = run(capsys, "solve", "cycle", "5", "--r", "3", "--certificate",
                       "-o", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N_3 = 3 (nodes 17)" and lines[1] == "r=3 len=3 n=5"
    assert out_file.read_text() == "\n".join(lines[1:]) + "\n"


def test_solve_node_limit(capsys):
    code, out, _ = run(capsys, "solve", "petersen", "--node-limit", "3")
    assert code == 1 and out.startswith("unknown")


def test_solve_rejects_a_negative_node_limit(capsys):
    code, out, err = run(capsys, "solve", "petersen", "--node-limit", "-1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_solve_bad_spec(capsys):
    code, _, err = run(capsys, "solve", "dodecahedron")
    assert code == 2 and "graph spec" in err


def test_census_file(tmp_path, capsys):
    path = tmp_path / "n4.g6"
    path.write_bytes(b"\n".join(emit_graph6(g) for g in connected_graphs(4)) + b"\n")
    code, out, _ = run(capsys, "census", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t")[:4] == ["n", "graphs", "n-1", "n-2"]
    assert lines[1].split("\t")[:4] == ["4", "6", "5", "1"]


def test_census_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_bytes(b"")
    code, out, _ = run(capsys, "census", str(path))
    assert code == 0


def test_census_reports_skipped_lines(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_bytes(b"BW\nA?\n")     # BW: path on 3 vertices; A?: disconnected
    code, out, err = run(capsys, "census", str(path))
    assert code == 0
    assert "skipped" in err


@pytest.mark.parametrize("r", ["1", "11"])
def test_census_rejects_a_bad_alphabet_before_any_line(tmp_path, capsys, r):
    path = tmp_path / "n3.g6"
    path.write_bytes(b"BW\nBw\n")
    code, out, err = run(capsys, "census", str(path), "--r", r)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: alphabet size")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_rejects_a_job_count_below_one_before_any_line(tmp_path, capsys, jobs):
    path = tmp_path / "n3.g6"
    path.write_bytes(b"BW\nBw\n")
    code, out, err = run(capsys, "census", str(path), "--jobs", jobs)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: job count")


def test_random_demo_ok(capsys):
    code, out, _ = run(capsys, "random-demo", "-n", "64", "--seed", "3")
    assert code == 0
    size_line = out.splitlines()[1]
    size = int(size_line.split()[0].split("=")[1])
    assert size <= 64 - k_threshold(64) + 5 + 1


def test_random_demo_precondition_exit_code(capsys):
    # find a small seed whose G(n, 1/2) violates the diameter-2 precondition
    for seed in range(50):
        g = random_graph(5, seed)
        try:
            random_partition(g, 2)
        except PreconditionError:
            code, _, err = run(capsys, "random-demo", "-n", "5", "--seed", str(seed), "--k", "2")
            assert code == 4 and "precondition" in err
            return
        except Exception:
            continue
    pytest.skip("no precondition-violating seed in range")


def test_random_demo_degenerate_k1(capsys):
    # k_threshold(12) is the degenerate k = 1; some seed's G(12, 1/2) has
    # diameter 2 and common neighbours, and then the demo succeeds.
    assert k_threshold(12) == 1
    for seed in range(30):
        code, out, err = run(capsys, "random-demo", "-n", "12", "--seed", str(seed))
        assert code in (0, 4), err
        if code == 0:
            assert "k=1 cover_pieces=0" in out
            return
    pytest.fail("no seed in range(30) gives a diameter-2 G(12, 1/2)")


def test_random_demo_past_the_old_cover_cap(capsys):
    # k = 10, and the threshold k = 13 at n = 1024, have explicit grid covers
    for argv in (["-n", "64", "--k", "10"], ["-n", "1024"]):
        code, out, err = run(capsys, "random-demo", *argv)
        assert code == 0 and err == ""
        fields = dict(f.split("=") for f in out.splitlines()[1].split())
        assert int(fields["partition_size"]) <= int(fields["bound"])
    assert fields["partition_size"] == "1018"


def test_capability_error_exits_2_with_one_error_line(capsys, monkeypatch):
    # An input beyond a size cap of the library is bad input, not a traceback.
    import squashcube.cli
    from squashcube.errors import CapabilityError

    def capped(n, seed):
        raise CapabilityError(f"symmetry search capped at 64 vertices (n={n})")

    monkeypatch.setattr(squashcube.cli, "random_graph", capped)
    code, out, err = run(capsys, "random-demo", "-n", "64")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "capped" in err


def test_solve_rejects_alphabet_above_ten(capsys):
    code, out, err = run(capsys, "solve", "cycle", "5", "--r", "11")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "alphabet size" in err


def test_library_self_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    # Make every verification report a violation, so the search's witness
    # check fails: that is a library bug, reported as exit 3, not a traceback.
    import squashcube.addressing

    monkeypatch.setattr(squashcube.addressing, "verify_addressing",
                        lambda dist, adr: [(0, 1, 1, 2)])
    code, _, err = run(capsys, "solve", "cycle", "5")
    assert code == 3 and "internal error" in err

    path = tmp_path / "n4.g6"
    path.write_bytes(b"\n".join(emit_graph6(g) for g in connected_graphs(4)) + b"\n")
    code, _, err = run(capsys, "census", str(path), "--jobs", "1")
    assert code == 3 and "internal error" in err


@pytest.mark.parametrize("spec", [
    ["cycle", "٧"],                          # Arabic-Indic 7
    ["multipartite", "٣,3,3"],
    ["johnson", "6", "３"],                   # fullwidth 3
    ["kam", "3", "+3"],
    ["complete", " 4"],
])
def test_graph_spec_numbers_are_ascii_decimal(capsys, spec):
    # int() reads each of these; `bound cycle ٧` printed C7's bounds
    for command in (["bound"], ["solve"], ["solve", "--r", "3"]):
        code, out, err = run(capsys, *command, *spec)
        assert code == 2 and out == ""
        assert err.startswith("error: bad graph spec") and "not a decimal number" in err


def test_graph6_line_number_is_ascii_decimal(tmp_path, capsys):
    path = tmp_path / "c5.g6"
    path.write_bytes(emit_graph6(connected_graphs(5)[0]) + b"\n")
    code, out, _ = run(capsys, "bound", f"graph6:{path}:1")
    assert code == 0
    for line in ("١", "+1", "01x"):
        code, out, err = run(capsys, "bound", f"graph6:{path}:{line}")
        assert code == 2 and out == "" and "not a decimal number" in err


@pytest.mark.parametrize("argv", [
    ["random-demo", "-n", "٦٤"],
    ["random-demo", "-n", "64", "--seed", "٠"],
    ["bound", "petersen", "--r", "٣"],
    ["solve", "cycle", "5", "--node-limit", "١٠"],
    ["census", "unused.g6", "--jobs", "٢"],
    ["address", "johnson", "-n", "٥", "-k", "2"],
    ["address", "blowup", "-a", "2", "-m", "2", "-s", "-٣"],
    ["solve", "cycle", "5", "--r", "+3"],
])
def test_integer_options_are_ascii_decimal(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 2 and "invalid integer value" in err


def test_plus3_class_sizes_are_ascii_decimal(capsys):
    base = ("address", "plus3", "--base", "fixture:multipartite/k_2_2_1", "--classes")
    assert run(capsys, *base, "2,2,1")[0] == 0
    code, out, err = run(capsys, *base, "٢,2,1")
    assert code == 2 and out == "" and "not a decimal number" in err
