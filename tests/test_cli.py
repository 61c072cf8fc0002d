"""CLI contract: subcommands, exit codes, machine format round-trip."""

import argparse
import gc
import hashlib
import importlib
import math
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from barnette import cli
from barnette.cli import (
    bench_exponent,
    bench_scaling,
    interleaved_rounds,
    main,
    median_round_exponent,
    parse_machine_records,
    to_dot,
)
from barnette.carve import (
    _ROLES,
    CarveResult,
    CarveStatus,
    EdgeRole,
    carve,
    carve_double,
    select_entrance,
)
from barnette.corpus import (
    build_named,
    corpus_names,
    dual_embedding,
    generate_prism,
    truncate_embedding,
)
from barnette.embedding import (
    Face,
    PlanarEmbedding,
    enumerate_3_edge_cuts,
    parse_embedding,
    serialize_embedding,
)
from barnette.oracle import find_hamiltonian_cycle

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# The package exports a function named carve, so the module is looked up.
carve_module = importlib.import_module("barnette.carve")


@pytest.fixture()
def rot_file(tmp_path):
    def write(name: str) -> str:
        g = build_named(name)
        path = tmp_path / f"{name}.rot"
        path.write_text(serialize_embedding(g.embedding), encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_validate_cube(self, capsys, rot_file):
        code, out = run_cli(capsys, "validate", "--machine", rot_file("cube"))
        assert code == 0
        rec = parse_machine_records(out)[0]
        assert rec["barnette"] == "true" and rec["n"] == "8"

    def test_validate_sample_file(self, capsys):
        code, out = run_cli(capsys, "validate", "--machine", str(SAMPLES / "cube.rot"))
        assert code == 0
        assert parse_machine_records(out)[0]["barnette"] == "true"

    def test_faces(self, capsys, rot_file):
        code, out = run_cli(capsys, "faces", "--machine", rot_file("cube"))
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 6
        assert all(r["length"] == "4" for r in recs)
        assert sum(r["outer"] == "true" for r in recs) == 1

    def test_carve_success(self, capsys, rot_file):
        code, out = run_cli(capsys, "carve", "--machine", "--trace", rot_file("prism_6"))
        assert code == 0
        recs = parse_machine_records(out)
        head = recs[0]
        assert head["status"] == "HamiltonianCycle"
        assert head["verified"] == "true"
        assert int(head["h_o"]) + int(head["h_i"]) == 12
        assert [r for r in recs if r["record"] == "trace"]

    def test_carve_failure_still_exits_zero(self, capsys, rot_file):
        code, out = run_cli(capsys, "carve", "--machine", rot_file("tutte_graph"))
        assert code == 0
        assert parse_machine_records(out)[0]["status"] == "Failure"

    def test_carve_explicit_entrance_and_flags(self, capsys, rot_file):
        path = rot_file("cube")
        code, out = run_cli(capsys, "carve", "--machine", "--entrance", "1,2",
                            "--left-walk", path)
        assert code == 0
        assert parse_machine_records(out)[0]["entrances"] == "1-2"

    def test_carve_double(self, capsys, rot_file):
        code, out = run_cli(capsys, "carve", "--machine", "--double", "0,1:2,3",
                            rot_file("cube"))
        assert code == 0
        rec = parse_machine_records(out)[0]
        assert rec["entrances"] == "0-1;2-3"

    def test_oracle(self, capsys, rot_file):
        code, out = run_cli(capsys, "oracle", "--machine", rot_file("tutte_graph"))
        rec = parse_machine_records(out)[0]
        assert code == 0
        assert rec["hamiltonian"] == "false" and rec["proved_absent"] == "true"
        r = find_hamiltonian_cycle(build_named("tutte_graph").embedding)
        assert (rec["expansions"], rec["max_depth"], rec["decided"]) == (
            str(r.expansions), str(r.max_depth), str(r.decided))

    def test_oracle_longest(self, capsys, rot_file):
        code, out = run_cli(capsys, "oracle", "--machine", "--longest", rot_file("cube"))
        rec = parse_machine_records(out)[0]
        assert rec["length"] == "8"

    def test_compare_tutte_agreement(self, capsys, rot_file):
        code, out = run_cli(capsys, "compare", "--machine", "--all-entrances",
                            rot_file("tutte_graph"))
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 10  # one per outer entrance
        assert all(r["agreement"] == "true" for r in recs)
        assert all(r["oracle"] == "non-hamiltonian" for r in recs)
        assert all(r["carve"] != "HamiltonianCycle" for r in recs)

    def test_non_simple_outer_face_is_a_failure(self, capsys, tmp_path, bridged_doc):
        # A carve whose outer face repeats a vertex is a Failure, which
        # exits 0; compare still reports the oracle's verdict.
        path = tmp_path / "bridged.rot"
        path.write_text(bridged_doc, encoding="utf-8")
        reason = "outer_face_1_is_not_a_simple_cycle;_longest_cycle_in_role_set:_0"
        for extra in ((), ("--entrance", "0,2")):
            code, out = run_cli(capsys, "carve", "--machine", *extra, str(path))
            assert code == 0
            rec = parse_machine_records(out)[0]
            assert (rec["status"], rec["reason"]) == ("Failure", reason)
        code, out = run_cli(capsys, "compare", "--machine", "--all-entrances", str(path))
        recs = parse_machine_records(out)
        assert code == 0
        # One record per outer edge, though the outer walk passes 4-5 twice.
        assert [r["entrance"] for r in recs] == [
            "0-1", "0-2", "1-4", "2-4", "4-5", "5-6", "5-7", "6-8", "7-8"
        ]
        assert all(r["carve"] == "Failure" for r in recs)
        assert all(r["oracle"] == "non-hamiltonian" for r in recs)
        assert all(r["agreement"] == "true" for r in recs)

    def test_compare_directory(self, capsys, tmp_path, rot_file):
        rot_file("cube")
        rot_file("prism_6")
        code, out = run_cli(capsys, "compare", "--machine", "--dir", str(tmp_path))
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 2
        assert all(r["agreement"] == "true" for r in recs)

    def test_compare_times_validate(self, monkeypatch):
        real_validate = cli.validate

        def slow_validate(emb):
            time.sleep(0.05)
            return real_validate(emb)

        monkeypatch.setattr(cli, "validate", slow_validate)
        report = cli._compare_one(str(SAMPLES / "cube.rot"), False, 10**6)
        assert report.seconds["validate"] >= 0.05

    def test_compare_all_entrances_skips_cut_enumeration(self, capsys, monkeypatch):
        # The cuts only serve select_entrance, which --all-entrances skips.
        def no_cuts(emb):
            raise AssertionError("cut enumeration ran")

        monkeypatch.setattr(cli, "enumerate_3_edge_cuts", no_cuts)
        code, out = run_cli(capsys, "compare", "--machine", "--all-entrances",
                            str(SAMPLES / "cube.rot"))
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 4
        assert all(r["carve"] == "HamiltonianCycle" for r in recs)

    def test_large_map_enters_by_the_cut_rule(self, capsys, tmp_path):
        emb = truncate_embedding(generate_prism(25).embedding)
        cuts = enumerate_3_edge_cuts(emb)
        assert emb.edge_count > 400 and cuts
        path = tmp_path / "truncated_prism.rot"
        path.write_text(serialize_embedding(emb), encoding="utf-8")
        want = select_entrance(emb, cuts).edge
        code, out = run_cli(capsys, "carve", "--machine", str(path))
        assert code == 0
        assert parse_machine_records(out)[0]["entrances"] == f"{want[0]}-{want[1]}"
        code, out = run_cli(capsys, "compare", "--machine", "--budget", "1000", str(path))
        assert code == 0
        assert [r["entrance"] for r in parse_machine_records(out)] == [f"{want[0]}-{want[1]}"]
        code, out = run_cli(capsys, "carve", str(path))
        assert code == 0
        assert f"entrances [{want}]" in out and "large graph" not in out
        # Rooted at a triangle, every size gets the typed short-outer error.
        triangle = next(f for f in emb.faces if f.length == 3)
        path.write_text(serialize_embedding(emb.with_outer_face(triangle.id)), encoding="utf-8")
        assert main(["carve", str(path)]) == 2
        assert "outer cycle has length 3" in capsys.readouterr().err

    def test_chambers(self, capsys, rot_file):
        path = rot_file("cube")
        res = carve(build_named("cube").embedding, (0, 1))
        cyc = ",".join(str(v) for v in res.cycle)
        code, out = run_cli(capsys, "chambers", "--machine", path, "--cycle", cyc)
        assert code == 0
        assert parse_machine_records(out)[0]["count"] == "1"

    def test_chambers_invalid_cycle(self, capsys, rot_file):
        with pytest.raises(SystemExit):
            main(["chambers", rot_file("cube"), "--cycle", "0,1,2,3"])

    def test_chambers_non_cubic_map_is_an_error(self, tmp_path):
        # The octahedron is Hamiltonian but 4-regular: no count is given.
        octahedron = dual_embedding(build_named("cube").embedding)
        path = tmp_path / "octahedron.rot"
        path.write_text(serialize_embedding(octahedron), encoding="utf-8")
        cycle = find_hamiltonian_cycle(octahedron).certificate.vertices
        with pytest.raises(SystemExit) as exc:
            main(["chambers", str(path), "--cycle", ",".join(map(str, cycle))])
        assert str(exc.value) == "error: chamber analysis needs a cubic graph"

    def test_corpus_list_and_emit(self, capsys):
        code, out = run_cli(capsys, "corpus", "list")
        assert code == 0
        assert any(line.startswith("name=cube") for line in out.splitlines())
        code, out = run_cli(capsys, "corpus", "emit", "prism_6")
        assert code == 0 and out.startswith("n 12")

    def test_corpus_emit_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["corpus", "emit", "petersen"])

    def test_bench(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--family", "prism",
                            "--sizes", "2,3")
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 2
        assert all(r["status"] == "HamiltonianCycle" for r in recs)

    def test_bench_leapfrog(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--family", "leapfrog",
                            "--sizes", "1,2")
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ["24", "72"]
        assert all(r["family"] == "leapfrog" for r in recs)
        # Past 24 vertices the cube leapfrogs' carves fail (fail-fast).
        assert recs[1]["status"] == "Failure"

    def test_bench_unknown_family(self):
        with pytest.raises(SystemExit, match="unknown bench family"):
            main(["bench", "--family", "cube", "--sizes", "1"])

    def test_bench_empty_sizes(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--family", "prism")
        assert code == 0 and parse_machine_records(out) == []

    @pytest.mark.parametrize("family, sizes, ns", [("prism", "2,5", ["8", "20"]),
                                                   ("leapfrog", "1,2", ["24", "72"])])
    def test_bench_front_layer(self, capsys, family, sizes, ns):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "front",
                            "--family", family, "--sizes", sizes)
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ns
        assert all(r["layer"] == "front" and r["status"] == "parsed" for r in recs)
        assert all(float(r["per_vertex_us"]) > 0 for r in recs)

    def test_bench_front_prints_fitted_exponent(self, capsys):
        # The median over rounds of a least-squares exponent over every
        # size run, once there are three; two sizes print none.
        code, out = run_cli(capsys, "bench", "--layer", "front", "--sizes", "2,3,4")
        assert code == 0 and out.count("parsed") == 3
        assert re.search(r"^scaling exponent, least squares over 3 sizes, median over rounds: "
                         r"-?\d+\.\d\d$", out, re.M)
        code, out = run_cli(capsys, "bench", "--layer", "front", "--sizes", "2,3")
        assert code == 0 and out.count("parsed") == 2 and "exponent" not in out

    def test_bench_fit_record_round_trips(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "front", "--sizes", "2,3,4")
        recs = parse_machine_records(out)
        assert code == 0 and [r["record"] for r in recs] == ["bench"] * 3 + ["bench_fit"]
        fit = recs[-1]
        assert fit == {"record": "bench_fit", "family": "prism", "layer": "front",
                       "sizes": "3", "exponent": fit["exponent"]}
        assert re.fullmatch(r"-?\d+\.\d{3}", fit["exponent"])
        assert parse_machine_records(out.splitlines()[-1]) == [fit]

    @pytest.mark.parametrize("family, sizes, ns", [("prism", "2,5,9", ["8", "20", "36"]),
                                                   ("leapfrog", "1,2,3", ["24", "72", "216"])])
    def test_bench_faces_layer_round_trips(self, capsys, family, sizes, ns):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "faces",
                            "--family", family, "--sizes", sizes)
        recs = parse_machine_records(out)
        assert code == 0 and [r["record"] for r in recs] == ["bench"] * 3 + ["bench_fit"]
        faces = [len(cli._bench_graph(family, k).faces) for k in map(int, sizes.split(","))]
        assert [(r["n"], r["status"]) for r in recs[:3]] == [
            (n, f"faces:{count}") for n, count in zip(ns, faces)]
        assert all(r["layer"] == "faces" and float(r["seconds"]) > 0 for r in recs[:3])
        for line, rec in zip(out.splitlines(), recs):
            assert parse_machine_records(line) == [rec]
            assert rec["family"] == family and rec["layer"] == "faces"

    def test_bench_unknown_layer(self):
        with pytest.raises(SystemExit, match="unknown bench layer"):
            main(["bench", "--layer", "search", "--sizes", "1"])

    @pytest.mark.parametrize("family, sizes, ns", [("prism", "2,25", ["8", "100"]),
                                                   ("leapfrog", "1,2", ["24", "72"])])
    def test_bench_oracle_layer(self, capsys, family, sizes, ns):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "oracle",
                            "--family", family, "--sizes", sizes)
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ns
        assert all(r["record"] == "bench" and r["family"] == family for r in recs)
        assert all(r["layer"] == "oracle" and float(r["seconds"]) >= 0 for r in recs)
        for rec, k in zip(recs, map(int, sizes.split(","))):
            expansions = find_hamiltonian_cycle(cli._bench_graph(family, k)).expansions
            assert rec["status"] == f"expansions:{expansions}"

    def test_bench_oracle_layer_counters(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "oracle", "--sizes", "2,5")
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 2
        for rec, k in zip(recs, (2, 5)):
            r = find_hamiltonian_cycle(cli._bench_graph("prism", k))
            assert (rec["max_depth"], rec["decided"]) == (str(r.max_depth), str(r.decided))
        code, out = run_cli(capsys, "bench", "--layer", "oracle", "--sizes", "2")
        assert code == 0 and "max_depth:" in out and "decided:" in out

    @pytest.mark.parametrize("layer", ["carve", "double"])
    def test_bench_carve_rows_count_events(self, capsys, layer):
        # A leapfrog row past 24 vertices times a carve that stops after a
        # few steps; its events counter shows that.
        code, out = run_cli(capsys, "bench", "--machine", "--layer", layer,
                            "--family", "leapfrog", "--sizes", "1,2")
        recs = parse_machine_records(out)
        assert code == 0 and len(recs) == 2
        events = []
        for k in (1, 2):
            emb = cli._bench_graph("leapfrog", k)
            darts = emb.outer_face.darts
            if layer == "carve":
                res = carve(emb, min(emb.outer_edges))
            else:
                res = carve_double(emb, (darts[0], darts[4]))
            events.append(str(len(res.trace)))
        assert [rec["events"] for rec in recs] == events
        code, out = run_cli(capsys, "bench", "--layer", layer, "--family", "leapfrog", "--sizes", "2")
        assert code == 0 and out.rstrip().endswith(f"events:{events[1]}")

    def test_bench_enumerate_layer(self, capsys):
        # C_2k x K_2 has 2k + 2 Hamiltonian cycles: 2k that use two spokes
        # and the two that use every spoke, alternating rims.
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "enumerate",
                            "--sizes", "2,3,4,5")
        recs = [r for r in parse_machine_records(out) if r["record"] == "bench"]
        assert code == 0 and [r["n"] for r in recs] == ["8", "12", "16", "20"]
        assert [r["status"] for r in recs] == [f"cycles:{2 * k + 2}" for k in (2, 3, 4, 5)]
        assert all(r["layer"] == "enumerate" and float(r["seconds"]) >= 0 for r in recs)
        # The cube leapfrogged once is the truncated octahedron.
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "enumerate",
                            "--family", "leapfrog", "--sizes", "1")
        (rec,) = parse_machine_records(out)
        assert code == 0 and (rec["n"], rec["status"]) == ("24", "cycles:44")

    @pytest.mark.parametrize("family, sizes, ns", [("prism", "2,5,9", [8, 20, 36]),
                                                   ("leapfrog", "1,2,3", [24, 72, 216])])
    def test_bench_build_layer_times_one_leapfrog_step(self, capsys, family, sizes, ns):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "build",
                            "--family", family, "--sizes", sizes)
        recs = parse_machine_records(out)
        assert code == 0 and [r["record"] for r in recs] == ["bench"] * 3 + ["bench_fit"]
        assert [(r["n"], r["status"]) for r in recs[:3]] == [
            (str(n), f"vertices:{3 * n}") for n in ns]
        assert all(r["layer"] == "build" and float(r["seconds"]) > 0 for r in recs[:3])

    def test_dot_plain_and_carved(self, capsys, rot_file):
        path = rot_file("cube")
        code, out = run_cli(capsys, "dot", path)
        assert code == 0 and out.startswith("graph G {") and "0 -- 1;" in out

        code, out = run_cli(capsys, "dot", path, "--carve")
        assert code == 0
        assert "style=bold" in out          # cycle edges
        assert "style=dashed" in out        # doors
        assert 'color="black:invis:black"' in out  # entrance
        assert "// step" in out             # opening order annotations


@pytest.mark.parametrize("claimed, cycle, reported, verified", [
    (CarveStatus.HAMILTONIAN_CYCLE, (0, 1, 2, 3), "HamiltonianCycle", "true"),
    (CarveStatus.HAMILTONIAN_CYCLE, (0, 1, 2), "Failure", "false"),
    (CarveStatus.NEAR_CYCLE, (0, 1, 2), "Failure", "false"),  # an (n-1)-cycle
    (CarveStatus.NEAR_CYCLE, (0, 1, 2, 3), "Failure", "false"),  # spans all n
    (CarveStatus.NEAR_CYCLE, (0, 1, 1), "Failure", "false"),  # not a cycle
    (CarveStatus.FAILURE, (), "Failure", "false"),
])
def test_carve_gate_checks_each_claim_at_its_length(capsys, claimed, cycle, reported, verified):
    k4 = PlanarEmbedding([[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]])
    doors = bytes([_ROLES.index(EdgeRole.INNER_DOOR)]) * 12  # every dart a door
    res = CarveResult(claimed, cycle, doors, (), ((0, 1),), k4)
    args = argparse.Namespace(machine=True, file="k4.rot", trace=False)
    cli._emit_carve(args, sys.stdout, k4, res)
    rec = parse_machine_records(capsys.readouterr().out)[0]
    assert (rec["status"], rec["verified"]) == (reported, verified)


@pytest.mark.parametrize("cycle, reported, agreement", [
    ((0, 1, 2, 5, 3), "Failure", "false"),  # an (n-1)-cycle
    ((0, 1, 2, 5, 4, 3), "Failure", "false"),  # spans all n
    ((0, 1, 1), "Failure", "false"),  # not a cycle
])
def test_compare_and_dot_gate_a_near_cycle_claim(capsys, tmp_path, monkeypatch, cycle, reported,
                                                 agreement):
    # The triangular prism: rings 0-1-2 and 3-4-5, spokes i - i + 3.
    prism = PlanarEmbedding([[1, 3, 2], [2, 4, 0], [0, 5, 1], [0, 4, 5], [1, 5, 3], [2, 3, 4]])
    path = tmp_path / "prism_3.rot"
    path.write_text(serialize_embedding(prism), encoding="utf-8")
    claim = lambda emb, entrance: CarveResult(CarveStatus.NEAR_CYCLE, cycle, bytes(18), (),
                                              (entrance,), emb)
    monkeypatch.setattr(cli, "carve", claim)
    code, out = run_cli(capsys, "compare", "--machine", str(path))
    [rec] = parse_machine_records(out)
    assert code == 0 and (rec["carve"], rec["agreement"]) == (reported, agreement)
    code, out = run_cli(capsys, "dot", "--carve", str(path))
    assert code == 0 and f"// carve status: {reported}\n" in out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/g.rot"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text("n 2\n0: 1 1\n1: 0\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("what, text, where", [
        ("vertex count", "n {}\n", "line 1, column 3"),
        ("vertex id", "n 4\n{}: 1 2 3\n", "line 2, column 1"),
        ("neighbor", "n 4\n0: 1 {} 3\n", "line 2, column 6"),
    ])
    def test_oversized_integer_names_its_line_and_column(self, tmp_path, capsys, what, text, where):
        # Past int()'s 4300-digit limit.
        bad = tmp_path / "big.rot"
        bad.write_text(text.format("7" * 5000), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {what} has 5000 digits, too many to read ({where})\n"

    @pytest.mark.parametrize("argv", [["oracle", "--budget", "-1"], ["compare", "--budget", "-5"]])
    def test_negative_budget_is_an_error(self, capsys, argv):
        assert main([*argv, str(SAMPLES / "cube.rot")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: budget must be at least 0, got {argv[-1]}\n"

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestMachineFormat:
    def test_round_trip(self):
        text = "record=x a=1 b=true c=none\nrecord=y a=2 b=false c=0-1\n"
        recs = parse_machine_records(text)
        assert recs == [
            {"record": "x", "a": "1", "b": "true", "c": "none"},
            {"record": "y", "a": "2", "b": "false", "c": "0-1"},
        ]

    def test_malformed_token(self):
        with pytest.raises(ValueError):
            parse_machine_records("record=x broken\n")

    @pytest.mark.parametrize("command", ["validate", "carve"])
    def test_path_with_spaces_round_trips(self, capsys, tmp_path, command):
        folder = tmp_path / "sp ace"
        folder.mkdir()
        path = folder / "my  cube.rot"
        path.write_text(serialize_embedding(build_named("cube").embedding), encoding="utf-8")
        code, out = run_cli(capsys, command, "--machine", str(path))
        assert code == 0
        [rec] = parse_machine_records(out)
        assert rec["record"] == command
        assert rec["file"].endswith("/sp_ace/my_cube.rot")


class TestDeterminism:
    def test_carve_trace_byte_identical_across_processes(self, tmp_path):
        g = build_named("prism_6")
        path = tmp_path / "p.rot"
        path.write_text(serialize_embedding(g.embedding), encoding="utf-8")
        cmd = [sys.executable, "-m", "barnette", "carve", "--trace", "--machine", str(path)]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        assert b"status=HamiltonianCycle" in runs[0]


# SHA-256 of `barnette faces --machine` over every sample file and every
# `corpus emit` graph, each rooted at every one of its faces in turn.
# Without the two glued samples the sweep is 292 runs with digest
# aa1127aa3786196ac55415143cc70b722605a4fc2b5d03202fc6a1a7679e8d5e.
FACES_DIGEST = "11a6e3c24aba09dd73482f06c0eeb441cf9cee38c6380a7ab61462960ac8fe35"
FACES_RUNS = 319


def test_faces_output_is_pinned(capsys, tmp_path):
    docs = [p.read_text(encoding="utf-8") for p in sorted(SAMPLES.glob("*.rot"))]
    for name in corpus_names():
        code, text = run_cli(capsys, "corpus", "emit", name)
        assert code == 0
        docs.append(text)
    digest = hashlib.sha256()
    path = tmp_path / "rooted.rot"
    runs = 0
    for text in docs:
        emb = parse_embedding(text)
        for f in range(len(emb.faces)):
            path.write_text(serialize_embedding(emb.with_outer_face(f)), encoding="utf-8")
            code, out = run_cli(capsys, "faces", "--machine", str(path))
            assert code == 0
            digest.update(out.encode())
            runs += 1
    assert (runs, digest.hexdigest()) == (FACES_RUNS, FACES_DIGEST)


def test_fail_fast_record_builds_only_the_faces_it_reads(capsys, tmp_path, monkeypatch):
    # `carve --machine FILE` on a 5832-vertex leapfrog whose carve fails
    # within a few events: of its 2918 faces, only the outer face, the at
    # most two faces its outer line is matched against and the faces the
    # carve enters get their darts or vertices built, and the record's
    # three role counts build no frozenset.
    emb = build_named("cube").embedding
    for _ in range(6):
        emb = truncate_embedding(dual_embedding(emb))
    text = serialize_embedding(emb)
    path = tmp_path / "leapfrog.rot"
    path.write_text(text, encoding="utf-8")
    u, v = min(emb.outer_edges)
    built, frozensets = [], []

    walk_vertices = Face._walk_vertices

    def counting_walk(face):
        built.append(face.id)
        return walk_vertices(face)

    def counting_frozenset(*args):
        frozensets.append(args)
        return frozenset(*args)

    monkeypatch.setattr(Face, "_walk_vertices", counting_walk)
    monkeypatch.setattr(carve_module, "frozenset", counting_frozenset, raising=False)
    code, out = run_cli(capsys, "carve", "--machine", "--trace", "--entrance", f"{u},{v}", str(path))
    monkeypatch.undo()
    head, *trace = parse_machine_records(out)
    assert code == 0 and head["status"] == "Failure" and 0 < len(trace) < 20
    assert int(head["h_o"]) + int(head["h_i"]) + int(head["d_i"]) == emb.edge_count - 1  # d_e
    assert frozensets == []
    doc = parse_embedding(text)
    c0, c1 = emb.outer_face.vertices[:2]
    d = doc.dart_id(c0, c1)
    matched = {doc.dart_index.dart_face[d], doc.dart_index.dart_face[doc.dart_index.twin[d]]}
    entered = {int(rec["face"]) for rec in trace} - {-1}
    assert len(built) == len(set(built)) and doc.outer_face_id in built
    assert set(built) <= {doc.outer_face_id} | matched | entered
    assert len(doc.faces) == 2918


class TestBenchScaling:
    def test_rows_shape(self):
        rows, _ = bench_scaling([2, 5], rounds=1)
        assert [r["n"] for r in rows] == [8, 20]
        assert all(r["seconds"] >= 0 for r in rows)
        assert all(r["status"] == "HamiltonianCycle" for r in rows)
        front, _ = bench_scaling([2, 5], rounds=1, layer="front")
        assert [r["n"] for r in front] == [8, 20]
        assert all(r["status"] == "parsed" and r["seconds"] >= 0 for r in front)
        finish, _ = bench_scaling([2, 5], rounds=1, layer="finish")
        assert [r["n"] for r in finish] == [8, 20]
        assert all(r["status"] == "chambers:1" and r["seconds"] >= 0 for r in finish)

    def test_oracle_layer_rows(self):
        rows, _ = bench_scaling([2, 5], rounds=2, layer="oracle")
        assert [r["n"] for r in rows] == [8, 20]
        assert all(r["seconds"] >= 0 and r["per_vertex_us"] >= 0 for r in rows)
        want = [find_hamiltonian_cycle(generate_prism(k).embedding).expansions for k in (2, 5)]
        assert [r["status"] for r in rows] == [f"expansions:{e}" for e in want]
        assert want == [4, 10]

    def test_exponent_is_a_least_squares_slope(self):
        def fit(ns, power):
            return bench_exponent(ns, [1e-6 * n ** power for n in ns])

        assert fit([10, 100, 1000], 1.0) == pytest.approx(1.0)
        assert fit([8, 20, 40, 100], 2.0) == pytest.approx(2.0)
        # The slope of the line that fits three points best, not of the ends.
        # At log n = 0, 1, 3 and log seconds = 0, 0, 3 that is 15/14, and the
        # ends alone would read 1.
        assert bench_exponent([1, math.e, math.e ** 3], [1.0, 1.0, math.e ** 3]) == pytest.approx(
            15 / 14)
        assert fit([10, 100], 1.0) is None
        assert fit([10, 10, 100], 1.0) is None
        rng = random.Random(5)
        ns = [8, 20, 40, 100, 200]
        noisy = [rng.uniform(1e-4, 1.0) for _ in ns]
        want = statistics.linear_regression([math.log(n) for n in ns],
                                            [math.log(s) for s in noisy]).slope
        assert bench_exponent(ns, noisy) == pytest.approx(want)

    def test_median_round_exponent_outlasts_one_slow_round(self):
        # Three rounds of times per size: one linear, one slow at the
        # smallest size, one fast there.  The fast round then runs ten
        # times slower all over, as when the host stalls through it.  Its
        # own fit stays above the linear round's, so the median holds;
        # the best times lose the small size's fast sample, so their fit
        # moves.
        ns = [10, 100, 1000]
        linear = [1e-6 * n for n in ns]
        rounds = [linear, [1.2e-5, *linear[1:]], [0.8e-5, *linear[1:]]]
        stalled = rounds[:2] + [[10 * t for t in rounds[2]]]

        def best_fit(times):
            return bench_exponent(ns, [min(t) for t in zip(*times)])

        assert median_round_exponent(ns, rounds) == pytest.approx(1.0)
        assert median_round_exponent(ns, stalled) == pytest.approx(1.0)
        assert best_fit(rounds) > 1.04 and best_fit(stalled) == pytest.approx(1.0)
        assert median_round_exponent(ns[:2], [t[:2] for t in rounds]) is None

    def test_timer_batches_and_restores_the_collector(self):
        # Each round times every case in turn, each batched to the largest
        # size, with the collector off; a caller's disabled collector
        # stays disabled.
        calls = []

        def run(arg):
            calls.append((arg, gc.isenabled()))
            return arg

        gc.disable()
        try:
            times, last = interleaved_rounds([("a", 10), ("b", 30)], run, 2,
                                             setup=str.upper)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert calls == [("A", False)] * 3 + [("B", False)] + [("A", False)] * 3 + [("B", False)]
        assert last == ["A", "B"] and len(times) == 2 and all(len(t) == 2 for t in times)

    def test_timer_turns_the_collector_back_on_after_a_raise(self):
        def fail(arg):
            raise RuntimeError(arg)

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="x"):
            interleaved_rounds([("x", 1)], fail, 1)
        assert gc.isenabled()

    def test_finish_layer(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "finish", "--sizes", "2,25")
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ["8", "100"]
        assert all(r["layer"] == "finish" and r["status"] == "chambers:1" for r in recs)

    def test_trace_layer(self, capsys):
        # Each rep times building the events of a fresh carve's trace; the
        # status counts them.
        for family, sizes in (("prism", [2, 25]), ("leapfrog", [1])):
            rows, _ = bench_scaling(sizes, rounds=2, family=family, layer="trace")
            want = []
            for k in sizes:
                emb = cli._bench_graph(family, k)
                want.append(f"events:{len(carve(emb, min(emb.outer_edges)).trace)}")
            assert [r["status"] for r in rows] == want
            assert all(r["seconds"] >= 0 and r["per_vertex_us"] >= 0 for r in rows)
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "trace", "--sizes", "2,25")
        recs = parse_machine_records(out)
        assert code == 0 and all(r["layer"] == "trace" for r in recs)
        assert [(r["n"], r["status"]) for r in recs] == [("8", "events:3"), ("100", "events:26")]

    def test_double_layer(self, capsys):
        # Each rep times carve_double from the outer walk's first edge and
        # the edge four steps along; the status is the result's.
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "double",
                            "--family", "prism", "--sizes", "3,25")
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ["12", "100"]
        assert all(r["layer"] == "double" and float(r["seconds"]) >= 0 for r in recs)
        for rec, k in zip(recs, (3, 25)):
            emb = cli._bench_graph("prism", k)
            darts = emb.outer_face.darts
            assert rec["status"] == carve_double(emb, (darts[0], darts[4])).status.value

    def test_double_layer_expands_on_prisms(self):
        # The prism rows time a double carve that runs n/4 events, so the
        # layer's exponent measures carve_double's expansion, not its set-up.
        rows, _ = bench_scaling([25, 250, 2500], rounds=1, layer="double")
        assert [r["n"] for r in rows] == [100, 1000, 10000]
        assert [r["events"] for r in rows] == [25, 250, 2500]

    def test_double_layer_needs_six_outer_edges(self, capsys):
        # The cube (prism k = 2) has a 4-edge outer face: no edge lies four
        # steps from the first without touching it.
        assert main(["bench", "--layer", "double", "--sizes", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bench layer double needs an outer face of at least 6 edges: prism k=2 has 4\n"
        )

    def test_finish_layer_needs_a_hamiltonian_carve(self, capsys):
        # The 72-vertex cube leapfrog's carve fails, so there is no cycle
        # to verify and count.
        assert main(["bench", "--layer", "finish", "--family", "leapfrog", "--sizes", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: bench layer finish needs a Hamiltonian carve: leapfrog k=2 ended Failure: "
        )


def test_to_dot_contains_every_edge():
    emb = build_named("cube").embedding
    text = to_dot(emb)
    assert text.count(" -- ") == emb.edge_count
