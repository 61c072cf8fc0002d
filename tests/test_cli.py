"""CLI contract: subcommands, exit codes, machine format round-trip."""

import argparse
import hashlib
import importlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from barnette import cli
from barnette.cli import bench_scaling, main, parse_machine_records, to_dot
from barnette.carve import _ROLES, CarveResult, CarveStatus, EdgeRole, carve, select_entrance
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
embedding_module = importlib.import_module("barnette.embedding")


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

    def test_bench_front_prints_ratio(self, capsys):
        code, out = run_cli(capsys, "bench", "--layer", "front", "--sizes", "2,3")
        assert code == 0 and out.count("parsed") == 2
        assert "per-vertex ratio largest/smallest:" in out

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
    (CarveStatus.NEAR_CYCLE, (0, 1, 2), "NearCycle", "true"),
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


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/g.rot"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text("n 2\n0: 1 1\n1: 0\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2

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
FACES_DIGEST = "550fb1c6a7af35cfae6e77a03099cbed23d0b5b12ec31ddb706c7788eb1a84e8"
FACES_RUNS = 198


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
    # carve enters get their darts built, and the record's three role
    # counts build no frozenset.
    emb = build_named("cube").embedding
    for _ in range(6):
        emb = truncate_embedding(dual_embedding(emb))
    text = serialize_embedding(emb)
    path = tmp_path / "leapfrog.rot"
    path.write_text(text, encoding="utf-8")
    u, v = min(emb.outer_edges)
    built, frozensets = [], []

    class CountingFace(Face):
        def __init__(self, id, darts):
            super().__init__(id, darts)
            built.append(id)

    def counting_frozenset(*args):
        frozensets.append(args)
        return frozenset(*args)

    monkeypatch.setattr(embedding_module, "Face", CountingFace)
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
    assert len(built) == len(set(built))
    assert set(built) <= {doc.outer_face_id} | matched | entered
    assert len(doc.faces) == 2918


class TestBenchScaling:
    def test_rows_shape(self):
        rows = bench_scaling([2, 5], repeats=1)
        assert [r["n"] for r in rows] == [8, 20]
        assert all(r["seconds"] >= 0 for r in rows)
        assert all(r["status"] == "HamiltonianCycle" for r in rows)
        front = bench_scaling([2, 5], repeats=1, layer="front")
        assert [r["n"] for r in front] == [8, 20]
        assert all(r["status"] == "parsed" and r["seconds"] >= 0 for r in front)
        finish = bench_scaling([2, 5], repeats=1, layer="finish")
        assert [r["n"] for r in finish] == [8, 20]
        assert all(r["status"] == "chambers:1" and r["seconds"] >= 0 for r in finish)

    def test_oracle_layer_rows(self):
        rows = bench_scaling([2, 5], repeats=2, layer="oracle")
        assert [r["n"] for r in rows] == [8, 20]
        assert all(r["seconds"] >= 0 and r["per_vertex_us"] >= 0 for r in rows)
        want = [find_hamiltonian_cycle(generate_prism(k).embedding).expansions for k in (2, 5)]
        assert [r["status"] for r in rows] == [f"expansions:{e}" for e in want]
        assert want == [4, 10]

    def test_finish_layer(self, capsys):
        code, out = run_cli(capsys, "bench", "--machine", "--layer", "finish", "--sizes", "2,25")
        recs = parse_machine_records(out)
        assert code == 0 and [r["n"] for r in recs] == ["8", "100"]
        assert all(r["layer"] == "finish" and r["status"] == "chambers:1" for r in recs)

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
