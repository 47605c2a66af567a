"""Tests for :mod:`repro.faults` and the crash-safety it proves.

Four layers:

* the framework itself (points catalogue, specs, schedules, activation,
  the env grammar, seeded determinism);
* the atomic-write protocol (:mod:`repro.ioutil`) under injected
  crashes at every stage;
* the ``save_index`` torn-write regression: a truncation at *every*
  section boundary, and at a stride of offsets inside the sections, must
  leave the previous index intact and loadable;
* corrupt-index detection across every section (bit flip, truncation,
  and version skew / length-table / id-range / item-size damage behind
  a valid checksum), stale-index detection (graph digest, ``sketch_k``)
  and the service's quarantine behaviour.
"""

from __future__ import annotations

import io
import json
import os
from array import array

import pytest

from repro import faults
from repro.core import PublicIndex, load_index, save_index
from repro.exceptions import (
    FaultInjectedError,
    IndexBuildError,
    IndexCorruptError,
    TornWriteError,
    WorkerKilledError,
)
from repro.faults import FaultSchedule, FaultSpec, schedule_from_env, seeded_schedule
from repro.faults import points as fp
from repro.graph import LabeledGraph
from repro.graph.io import load_graph, save_graph
from repro.ioutil import atomic_write
from repro.obs import MetricsRegistry, install, uninstall
from repro.service import PPKWSService
from tests.conftest import (
    INDEX_SECTIONS,
    index_section_bounds,
    join_index_file,
    random_connected_graph,
    split_index_file,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leaked_schedule():
    """Every test starts and ends with fault injection off."""
    faults.deactivate()
    yield
    faults.deactivate()


@pytest.fixture
def index_and_graph():
    g = random_connected_graph(12, 4, seed=7)
    return PublicIndex.build(g, k=2), g


# ----------------------------------------------------------------------
# the point catalogue
# ----------------------------------------------------------------------
class TestPointCatalogue:
    def test_names_are_unique_and_registered(self):
        points = fp.all_points()
        names = [p.name for p in points]
        assert len(names) == len(set(names))
        for p in points:
            assert fp.point_named(p.name) is p

    def test_unknown_point_raises_with_known_list(self):
        with pytest.raises(ValueError, match="known points"):
            fp.point_named("no.such.point")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fp._point(fp.SERVICE_EXECUTE.name, "service", "dup")

    def test_stream_points_are_the_write_streams(self):
        streams = {p.name for p in fp.all_points() if p.stream}
        assert streams == {"persist.save.write", "graph.save.write"}

    def test_readme_documents_every_point(self):
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        missing = [p.name for p in fp.all_points() if f"`{p.name}`" not in readme]
        assert missing == [], f"points missing from README: {missing}"


# ----------------------------------------------------------------------
# specs and schedules
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rejects_string_point(self):
        with pytest.raises(ValueError, match="FaultPoint"):
            FaultSpec("service.execute", "raise")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(fp.SERVICE_EXECUTE, "explode")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            FaultSpec(fp.SERVICE_EXECUTE, "raise", at_hit=0)
        with pytest.raises(ValueError):
            FaultSpec(fp.SERVICE_EXECUTE, "delay", delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", truncate_at=-1)

    def test_matches_nth_and_every(self):
        once = FaultSpec(fp.SERVICE_EXECUTE, "raise", at_hit=3)
        assert [once.matches(h) for h in (1, 2, 3, 4)] == [False, False, True, False]
        onward = FaultSpec(fp.SERVICE_EXECUTE, "raise", at_hit=3, every=True)
        assert [onward.matches(h) for h in (2, 3, 4, 9)] == [False, True, True, True]


class TestSchedule:
    def test_fires_on_nth_hit_only(self):
        sched = FaultSchedule([FaultSpec(fp.SERVICE_EXECUTE, "raise", at_hit=2)])
        sched.fire(fp.SERVICE_EXECUTE)  # hit 1: armed but not due
        with pytest.raises(FaultInjectedError) as excinfo:
            sched.fire(fp.SERVICE_EXECUTE)
        assert excinfo.value.point == fp.SERVICE_EXECUTE.name
        sched.fire(fp.SERVICE_EXECUTE)  # hit 3: past it
        assert sched.hits(fp.SERVICE_EXECUTE) == 3
        assert sched.injections() == {fp.SERVICE_EXECUTE.name: 1}
        assert sched.total_injected() == 1

    def test_kill_raises_worker_killed(self):
        sched = FaultSchedule([FaultSpec(fp.EXECUTOR_WORKER, "kill")])
        with pytest.raises(WorkerKilledError):
            sched.fire(fp.EXECUTOR_WORKER)

    def test_delay_sleeps_and_counts(self):
        sched = FaultSchedule([FaultSpec(fp.CACHE_LOOKUP, "delay", delay_s=0.0)])
        sched.fire(fp.CACHE_LOOKUP)  # no raise
        assert sched.total_injected() == 1

    def test_truncate_at_non_stream_point_degrades_to_raise(self):
        sched = FaultSchedule([FaultSpec(fp.CACHE_STORE, "truncate", truncate_at=9)])
        with pytest.raises(TornWriteError) as excinfo:
            sched.fire(fp.CACHE_STORE)
        assert excinfo.value.byte_offset == 0

    def test_injections_are_counted_in_the_metrics_registry(self):
        reg = MetricsRegistry()
        install(reg)
        try:
            sched = FaultSchedule([FaultSpec(fp.SERVICE_EXECUTE, "raise")])
            with pytest.raises(FaultInjectedError):
                sched.fire(fp.SERVICE_EXECUTE)
        finally:
            uninstall()
        assert reg.value(
            "ppkws_faults_injected_total",
            labels={"point": fp.SERVICE_EXECUTE.name},
        ) == 1.0

    def test_wrap_write_truncates_at_byte_offset(self):
        sched = FaultSchedule(
            [FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", truncate_at=7)]
        )
        sink = io.StringIO()
        wrapped = sched.wrap_write(sink, fp.PERSIST_SAVE_WRITE)
        wrapped.write("0123")
        with pytest.raises(TornWriteError) as excinfo:
            wrapped.write("456789")
        assert sink.getvalue() == "0123456"
        assert excinfo.value.byte_offset == 7
        assert sched.total_injected() == 1

    def test_wrap_write_truncates_a_bytes_stream_at_byte_offset(self):
        sched = FaultSchedule(
            [FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", truncate_at=5)]
        )
        sink = io.BytesIO()
        wrapped = sched.wrap_write(sink, fp.PERSIST_SAVE_WRITE)
        wrapped.write("é".encode("utf-8"))  # one character, two bytes
        with pytest.raises(TornWriteError) as excinfo:
            wrapped.write(b"\x00\x01\x02\x03\x04")
        assert sink.getvalue() == b"\xc3\xa9\x00\x01\x02"
        assert excinfo.value.byte_offset == 5
        assert sched.total_injected() == 1

    def test_wrap_write_with_no_due_spec_returns_stream(self):
        sched = FaultSchedule(
            [FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", at_hit=5, truncate_at=0)]
        )
        sink = io.StringIO()
        assert sched.wrap_write(sink, fp.PERSIST_SAVE_WRITE) is sink


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
class TestActivation:
    def test_inactive_hooks_are_no_ops(self):
        assert not faults.is_active()
        faults.fire(fp.SERVICE_EXECUTE)  # must not raise
        sink = io.StringIO()
        assert faults.wrap_write(sink, fp.PERSIST_SAVE_WRITE) is sink

    def test_injected_activates_and_restores(self):
        sched = FaultSchedule([FaultSpec(fp.SERVICE_EXECUTE, "raise")])
        with faults.injected(sched) as active:
            assert active is sched
            assert faults.is_active()
            assert faults.active() is sched
            with pytest.raises(FaultInjectedError):
                faults.fire(fp.SERVICE_EXECUTE)
        assert not faults.is_active()

    def test_injected_nests(self):
        outer = FaultSchedule([])
        inner = FaultSchedule([])
        with faults.injected(outer):
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is outer

    def test_deactivate_clears(self):
        with faults.injected(FaultSchedule([])):
            faults.deactivate()
            assert not faults.is_active()

    def test_env_activation_hook(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "service.execute:raise")
        faults._activate_from_env()
        assert faults.is_active()
        schedule = faults.active()
        assert schedule is not None
        assert schedule.specs[0].point is fp.SERVICE_EXECUTE


class TestEnvGrammar:
    def test_simple_entry(self):
        sched = schedule_from_env("service.execute:raise")
        (spec,) = sched.specs
        assert spec.point is fp.SERVICE_EXECUTE
        assert spec.kind == "raise" and spec.at_hit == 1 and not spec.every

    def test_full_grammar(self):
        sched = schedule_from_env(
            "persist.save.write:truncate@2:137; serving.cache.lookup:delay@3+:0.5"
        )
        trunc, delay = sched.specs
        assert trunc.point is fp.PERSIST_SAVE_WRITE
        assert trunc.at_hit == 2 and trunc.truncate_at == 137 and not trunc.every
        assert delay.point is fp.CACHE_LOOKUP
        assert delay.at_hit == 3 and delay.every and delay.delay_s == 0.5

    def test_seed_form(self):
        sched = schedule_from_env("seed:42")
        assert sched.seed == 42
        assert sched.specs  # non-empty

    @pytest.mark.parametrize("bad", [
        "", "service.execute", "no.such.point:raise",
        "service.execute:explode", "service.execute:raise@x",
        "service.execute:raise:1.0", "seed:abc",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            schedule_from_env(bad)

    def test_seeded_schedule_is_deterministic(self):
        a, b = seeded_schedule(5), seeded_schedule(5)
        assert a.specs == b.specs
        assert seeded_schedule(6).specs != a.specs

    def test_seeded_schedule_truncates_only_streams(self):
        for seed in range(20):
            for spec in seeded_schedule(seed).specs:
                if spec.kind == "truncate":
                    assert spec.point.stream


# ----------------------------------------------------------------------
# the atomic-write protocol
# ----------------------------------------------------------------------
class TestAtomicWrite:
    POINTS = (fp.GRAPH_SAVE_WRITE, fp.GRAPH_SAVE_FSYNC, fp.GRAPH_SAVE_RENAME)

    def test_success_is_visible_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(str(path), *self.POINTS) as fh:
            fh.write("hello\n")
        assert path.read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_caller_exception_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path), *self.POINTS) as fh:
                fh.write("new\n")
                raise RuntimeError("mid-write crash")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("crash_point", ["fsync", "rename"])
    def test_injected_crash_before_publish(self, tmp_path, crash_point):
        point = (
            fp.GRAPH_SAVE_FSYNC if crash_point == "fsync" else fp.GRAPH_SAVE_RENAME
        )
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with faults.injected(FaultSchedule([FaultSpec(point, "raise")])):
            with pytest.raises(FaultInjectedError):
                with atomic_write(str(path), *self.POINTS) as fh:
                    fh.write("new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


    def test_binary_stream_follows_the_same_protocol(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(str(path), *self.POINTS, binary=True) as fh:
            fh.write(b"\x00\xffold")
        assert path.read_bytes() == b"\x00\xffold"
        sched = FaultSchedule(
            [FaultSpec(fp.GRAPH_SAVE_WRITE, "truncate", truncate_at=3)]
        )
        with faults.injected(sched):
            with pytest.raises(TornWriteError):
                with atomic_write(str(path), *self.POINTS, binary=True) as fh:
                    fh.write(b"\x01\x02")
                    fh.write(b"\x03\x04")
        assert sched.total_injected() == 1
        assert path.read_bytes() == b"\x00\xffold"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestGraphIOAtomicity:
    def test_torn_graph_save_preserves_previous_file(self, tmp_path):
        g1 = random_connected_graph(8, 2, seed=1)
        g2 = random_connected_graph(8, 2, seed=2)
        path = tmp_path / "g.txt"
        save_graph(g1, path)
        before = path.read_bytes()
        sched = FaultSchedule(
            [FaultSpec(fp.GRAPH_SAVE_WRITE, "truncate", truncate_at=10)]
        )
        with faults.injected(sched):
            with pytest.raises(TornWriteError):
                save_graph(g2, path)
        assert path.read_bytes() == before
        reloaded = load_graph(path, vertex_type=int)
        assert reloaded.num_vertices == g1.num_vertices
        assert reloaded.num_edges == g1.num_edges

    def test_load_read_fault_point(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(random_connected_graph(5, 1, seed=3), path)
        sched = FaultSchedule([FaultSpec(fp.GRAPH_LOAD_READ, "raise")])
        with faults.injected(sched):
            with pytest.raises(FaultInjectedError):
                load_graph(path)


# ----------------------------------------------------------------------
# the save_index torn-write regression (satellite 1)
# ----------------------------------------------------------------------
class TestIndexTornWriteRegression:
    def test_truncation_at_every_record_boundary(self, tmp_path, index_and_graph):
        """A crash after any number of bytes must be harmless.

        Before v2, ``save_index`` wrote straight to ``path``: a torn
        write left a parseable prefix that ``load_index`` accepted.
        Now, for every section boundary K (header, each of the 14
        sections, the trailer) and a stride of offsets inside them, an
        injected truncation at K bytes must leave the previous file
        byte-identical and loadable.
        """
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        good_bytes = path.read_bytes()
        boundaries = index_section_bounds(good_bytes)
        assert len(boundaries) == len(INDEX_SECTIONS) + 2
        offsets = sorted(set(boundaries) | set(range(1, len(good_bytes), 61)))
        assert offsets[-1] < len(good_bytes)  # the full length would succeed
        for offset in offsets:
            sched = FaultSchedule([
                FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", truncate_at=offset)
            ])
            with faults.injected(sched):
                with pytest.raises(TornWriteError) as excinfo:
                    save_index(index, path)
            assert excinfo.value.byte_offset == offset
            assert sched.total_injected() == 1, f"offset {offset} never fired"
            assert path.read_bytes() == good_bytes, f"torn at {offset}"
            load_index(g, path)  # still loadable
        assert sorted(os.listdir(tmp_path)) == ["idx.jsonl"]  # no tmp debris

    def test_crash_with_no_previous_file_leaves_nothing(self, tmp_path, index_and_graph):
        index, _ = index_and_graph
        path = tmp_path / "idx.jsonl"
        sched = FaultSchedule([
            FaultSpec(fp.PERSIST_SAVE_WRITE, "truncate", truncate_at=40)
        ])
        with faults.injected(sched):
            with pytest.raises(TornWriteError):
                save_index(index, path)
        assert os.listdir(tmp_path) == []

    def test_load_read_fault_point(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        with faults.injected(
            FaultSchedule([FaultSpec(fp.PERSIST_LOAD_READ, "raise")])
        ):
            with pytest.raises(FaultInjectedError):
                load_index(g, path)


# ----------------------------------------------------------------------
# corrupt-index detection (satellite 4)
# ----------------------------------------------------------------------
#: a text-v2 index as a previous release wrote it (header, one record,
#: checksummed trailer) -- the format this one no longer reads
_TEXT_V2 = (
    '{"record": "header", "version": 2, "k": 2, "kpads_per_center": 4, '
    '"num_vertices": 1}\n'
    '{"record": "pagerank", "v": "i:0", "score": 1.0}\n'
    '{"record": "trailer", "records": 2, "sha256": "' + "0" * 64 + '"}\n'
)

#: parameter name -> the sections a flipped byte lands in
_FLIP_GROUPS = {
    "header": ("header",),
    "meta": ("meta",),
    "pagerank": ("pagerank.ids", "pagerank.scores"),
    "pads": ("pads.owners", "pads.indptr", "pads.centers", "pads.dists"),
    "kpads": ("kpads.indptr", "kpads.centers", "kpads.dists", "kpads.witnesses"),
    "cand": ("cand.indptr", "cand.dists", "cand.vertices"),
    "trailer": ("trailer",),
}


def _saved(tmp_path, index):
    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    return path, path.read_bytes()


def _edited(sections: dict, name: str, typecode: str, edit) -> dict:
    """``sections`` with ``edit(array)`` applied to section ``name``."""
    column = array(typecode, sections[name])
    edit(column)
    return {**sections, name: column.tobytes()}


class TestCorruptIndexDetection:
    @pytest.mark.parametrize("kind", list(_FLIP_GROUPS))
    def test_bit_flip_in_each_record_type(self, tmp_path, index_and_graph, kind):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        bounds = index_section_bounds(raw)
        starts = dict(zip(("header",) + INDEX_SECTIONS + ("trailer",), bounds))
        ends = dict(zip(("header",) + INDEX_SECTIONS, bounds[1:]))
        ends["trailer"] = len(raw)
        for name in _FLIP_GROUPS[kind]:
            assert ends[name] > starts[name], f"{name} is empty"
            # the first byte past any magic, a middle byte and the last byte
            first = starts[name] + (8 if name == "header" else 0)
            for at in {first, (first + ends[name]) // 2, ends[name] - 1}:
                flipped = bytearray(raw)
                flipped[at] ^= 0x04
                path.write_bytes(bytes(flipped))
                with pytest.raises(IndexCorruptError, match="checksum mismatch"):
                    load_index(g, path)

    def test_flipped_magic_is_an_unsupported_format(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        path.write_bytes(b"Q" + raw[1:])
        with pytest.raises(IndexCorruptError, match="unsupported index format"):
            load_index(g, path)

    def test_text_v2_file_is_an_unsupported_format(self, tmp_path, index_and_graph):
        """No fallback reader: a previous release's file is damage."""
        _, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        path.write_text(_TEXT_V2, encoding="utf-8")
        with pytest.raises(IndexCorruptError, match="unsupported index format"):
            load_index(g, path)

    def test_truncation_at_every_section_boundary_is_detected(
        self, tmp_path, index_and_graph
    ):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        for offset in index_section_bounds(raw):  # keep the first ``offset`` bytes
            path.write_bytes(raw[:offset])
            with pytest.raises(IndexCorruptError, match="empty|checksum mismatch"):
                load_index(g, path)

    def test_mid_section_truncation_is_detected(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        for offset in list(range(1, len(raw), 53)) + [len(raw) - 9, len(raw) - 1]:
            path.write_bytes(raw[:offset])  # the last two tear the trailer
            with pytest.raises(
                IndexCorruptError, match="checksum mismatch|unsupported index format"
            ):
                load_index(g, path)

    def test_version_skew_with_valid_checksum(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        path.write_bytes(join_index_file(split_index_file(raw), version=99))
        with pytest.raises(IndexCorruptError, match="version 99"):
            load_index(g, path)

    def test_record_count_mismatch(self, tmp_path, index_and_graph):
        """The section table disagrees with the body, checksum valid."""
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        sections = split_index_file(raw)
        lengths = [len(blob) for blob in sections.values()]
        damaged = [
            join_index_file(sections, count=len(sections) + 1),
            join_index_file(sections, lengths=[lengths[0] + 8] + lengths[1:]),
            join_index_file(sections, lengths=lengths[:-1] + [lengths[-1] - 4]),
            join_index_file(list(sections.values())[:-1]),
        ]
        for blob in damaged:
            path.write_bytes(blob)
            with pytest.raises(IndexCorruptError, match="section table"):
                load_index(g, path)

    def test_undecodable_record_behind_valid_checksum(
        self, tmp_path, index_and_graph
    ):
        """An id past the vertex table, in each id section."""
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        sections = split_index_file(raw)
        id_sections = [
            "pagerank.ids", "pads.owners", "pads.centers", "kpads.centers",
            "kpads.witnesses", "cand.vertices",
        ]
        for name in id_sections:
            for bad_id in (g.num_vertices, -1):
                def poke(column, bad_id=bad_id):
                    column[len(column) // 2] = bad_id
                path.write_bytes(join_index_file(_edited(sections, name, "i", poke)))
                with pytest.raises(
                    IndexCorruptError, match=f"undecodable.*{name}.*out of range"
                ):
                    load_index(g, path)

    @pytest.mark.parametrize("name,typecode,edit", [
        *[(name, "i", poke) for name in (
            "pagerank.ids", "pads.owners", "pads.centers", "kpads.centers",
            "kpads.witnesses", "cand.vertices",
        ) for poke in (
            lambda c: c.__setitem__(-1, 10**6), lambda c: c.__setitem__(-1, -1),
        )],
        *[(name, "i", edit) for name in (
            "pads.indptr", "kpads.indptr", "cand.indptr",
        ) for edit in (
            lambda c: c.__setitem__(-2, c[-1] + 1),  # the last row runs backwards
            lambda c: c.__setitem__(-1, c[-1] + 1),  # ... or past its columns
        )],
    ])
    def test_damaged_last_row_fails_the_load_not_a_probe(
        self, tmp_path, index_and_graph, name, typecode, edit
    ):
        """Rows decode on first touch, but every check runs in load_index."""
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        sections = _edited(split_index_file(raw), name, typecode, edit)
        path.write_bytes(join_index_file(sections))
        with pytest.raises(IndexCorruptError, match=f"undecodable.*{name}"):
            load_index(g, path)

    @pytest.mark.parametrize("damage", [
        "item size", "row pointer order", "row pointer end", "row count",
        "column lengths", "pagerank lengths", "meta json", "meta field",
    ])
    def test_undecodable_section_behind_valid_checksum(
        self, tmp_path, index_and_graph, damage
    ):
        index, g = index_and_graph
        path, raw = _saved(tmp_path, index)
        sections = split_index_file(raw)
        if damage == "item size":
            sections["pads.dists"] += b"\x00\x00\x00"
            reason = "item size"
        elif damage == "row pointer order":
            def swap(column):
                column[1], column[2] = column[2] + 1, column[1]
            sections = _edited(sections, "pads.indptr", "i", swap)
            reason = "pads.indptr"
        elif damage == "row pointer end":
            sections = _edited(
                sections, "cand.indptr", "i", lambda c: c.__setitem__(-1, c[-1] + 1)
            )
            reason = "cand.indptr"
        elif damage == "row count":
            sections = _edited(sections, "kpads.indptr", "i", lambda c: c.pop(1))
            reason = "kpads.indptr"
        elif damage == "column lengths":
            sections = _edited(sections, "kpads.witnesses", "i", lambda c: c.pop())
            reason = "kpads.indptr"
        elif damage == "pagerank lengths":
            sections = _edited(sections, "pagerank.scores", "d", lambda c: c.pop())
            reason = "pagerank"
        elif damage == "meta json":
            sections["meta"] = sections["meta"][:-1]
            reason = "undecodable"
        else:
            meta = json.loads(sections["meta"])
            del meta["kpads_per_center"]
            sections["meta"] = json.dumps(meta).encode("utf-8")
            reason = "kpads_per_center"
        path.write_bytes(join_index_file(sections))
        with pytest.raises(IndexCorruptError, match=f"undecodable.*{reason}"):
            load_index(g, path)

    def test_empty_file(self, tmp_path, index_and_graph):
        _, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        path.write_text("")
        with pytest.raises(IndexCorruptError, match="empty"):
            load_index(g, path)

    def test_stale_index_is_not_corrupt(self, tmp_path, index_and_graph):
        """A vertex-count mismatch means *stale*, and must stay a plain
        IndexBuildError so the silent-rebuild path still applies."""
        index, _ = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        other = LabeledGraph.from_edges([(1, 2)])
        with pytest.raises(IndexBuildError) as excinfo:
            load_index(other, path)
        assert not isinstance(excinfo.value, IndexCorruptError)

    @pytest.mark.parametrize("change", ["edge", "weight", "label", "vertex name"])
    def test_same_size_graph_with_any_difference_is_stale(
        self, tmp_path, index_and_graph, change
    ):
        """The vertex count alone used to decide "same graph"."""
        index, g = index_and_graph
        path, _ = _saved(tmp_path, index)
        # rebuilt, not ``g.copy()``: the digest is layout-sensitive and a
        # copy may order neighbours differently (a harmless false "stale")
        other = random_connected_graph(12, 4, seed=7)
        u, v, w = next(iter(g.edges()))
        if change == "edge":
            spare = next(x for x in g.vertices() if x != u and not g.has_edge(u, x))
            other.remove_edge(u, v)
            other.add_edge(u, spare, w)
        elif change == "weight":
            other.add_edge(u, v, w + 0.5)
        elif change == "label":
            other.add_labels(u, {"never-seen"})
        else:
            other = LabeledGraph()
            for x in g.vertices():  # same shape, every vertex renamed
                other.add_vertex(f"v{x}", g.labels(x))
                for y, weight in g.neighbor_items(x):
                    other.add_edge(f"v{x}", f"v{y}", weight)
        assert other.num_vertices == g.num_vertices
        with pytest.raises(IndexBuildError) as excinfo:
            load_index(other, path)
        assert not isinstance(excinfo.value, IndexCorruptError)
        load_index(random_connected_graph(12, 4, seed=7), path)  # equal: loads

    def test_corrupt_is_an_index_build_error(self, tmp_path, index_and_graph):
        """Callers catching IndexBuildError (the pre-v2 contract) still
        catch corruption."""
        _, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        path.write_text("")
        with pytest.raises(IndexBuildError):
            load_index(g, path)


# ----------------------------------------------------------------------
# service quarantine of corrupt index files
# ----------------------------------------------------------------------
class TestServiceQuarantine:
    def _make_graph(self):
        return random_connected_graph(10, 3, seed=11)

    def test_corrupt_index_is_quarantined_with_warning(
        self, tmp_path, installed_registry
    ):
        g = self._make_graph()
        index_path = str(tmp_path / "net.idx")
        save_index(PublicIndex.build(g, k=2), index_path)
        with open(index_path, "a", encoding="utf-8") as fh:
            fh.write("garbage that breaks the trailer\n")
        corrupt_bytes = open(index_path, "rb").read()
        reg = installed_registry
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "net",
            "public": g, "index_path": index_path,
        })
        assert resp["status"] == "ok"
        assert any("corrupt index" in w for w in resp["warnings"])
        assert any(".corrupt" in w for w in resp["warnings"])
        # evidence preserved at <path>.corrupt, fresh index rebuilt at path
        assert open(index_path + ".corrupt", "rb").read() == corrupt_bytes
        assert load_index(svc._engine("net").public, index_path)
        assert reg.value("ppkws_index_corrupt_total") == 1.0
        # the rebuilt network works
        assert svc.execute({"op": "stats", "network": "net"})["status"] == "ok"

    def test_stale_index_rebuilds_silently(self, tmp_path):
        g = self._make_graph()
        other = random_connected_graph(20, 5, seed=12)
        index_path = str(tmp_path / "net.idx")
        save_index(PublicIndex.build(other, k=2), index_path)  # wrong graph
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "net",
            "public": g, "index_path": index_path,
        })
        assert resp["status"] == "ok"
        assert "warnings" not in resp
        assert not os.path.exists(index_path + ".corrupt")

    def test_same_vertices_different_graph_is_rebuilt_not_served(self, tmp_path):
        """Regression: ``num_vertices`` alone used to decide "same graph".

        Same four vertices, different edges and labels: the file of the
        first network was loaded for the second, so ``PADS(a)`` listed
        ``b`` (no longer a neighbour) and the KPADS witness for ``x``
        was ``a`` (which no longer carries ``x``).
        """
        index_path = str(tmp_path / "net.idx")

        def create(edges, labels):
            svc = PPKWSService(sketch_k=2)
            resp = svc.execute({
                "op": "create_network", "network": "net", "index_path": index_path,
                "public_edges": edges, "public_labels": labels,
            })
            assert resp["status"] == "ok" and "warnings" not in resp
            return svc._engine("net").index

        create([["a", "b"], ["b", "c"], ["c", "d"]], {"a": ["x"], "d": ["y"]})
        first = open(index_path, "rb").read()
        index = create([["a", "c"], ["a", "d"], ["b", "d"]], {"b": ["x"], "c": ["y"]})
        assert index.pads.entries["a"].get("b") != 1.0  # a-b is not an edge now
        assert set(index.kpads.witnesses["x"].values()) == {"b"}
        assert not os.path.exists(index_path + ".corrupt")  # stale, not corrupt
        assert open(index_path, "rb").read() != first  # ... and replaced
        # a restart over the second graph now loads what was just written
        stamp = os.stat(index_path).st_mtime_ns
        create([["a", "c"], ["a", "d"], ["b", "d"]], {"b": ["x"], "c": ["y"]})
        assert os.stat(index_path).st_mtime_ns == stamp

    def test_index_of_another_sketch_k_is_rebuilt_not_served(self, tmp_path):
        """Regression: a ``sketch_k=3`` service served a ``k=2`` file."""
        g = self._make_graph()
        index_path = str(tmp_path / "net.idx")
        PPKWSService(sketch_k=2).create_network("net", g, index_path=index_path)
        k2_bytes = open(index_path, "rb").read()
        svc = PPKWSService(sketch_k=3)
        resp = svc.execute({
            "op": "create_network", "network": "net",
            "public": g, "index_path": index_path,
        })
        assert resp["status"] == "ok" and "warnings" not in resp
        assert svc._engine("net").index.pads.k == 3
        assert not os.path.exists(index_path + ".corrupt")
        assert open(index_path, "rb").read() != k2_bytes
        assert load_index(svc._engine("net").public, index_path).pads.k == 3

    def test_text_v2_index_is_quarantined_once_and_rebuilt(
        self, tmp_path, installed_registry
    ):
        """A previous release's file: one quarantine, one warning, one rebuild."""
        g = self._make_graph()
        index_path = str(tmp_path / "net.idx")
        with open(index_path, "w", encoding="utf-8") as fh:
            fh.write(_TEXT_V2)
        reg = installed_registry
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "net",
            "public": g, "index_path": index_path,
        })
        assert resp["status"] == "ok"
        assert len(resp["warnings"]) == 1
        assert "unsupported index format" in resp["warnings"][0]
        assert open(index_path + ".corrupt", encoding="utf-8").read() == _TEXT_V2
        assert sorted(os.listdir(tmp_path)) == ["net.idx", "net.idx.corrupt"]
        assert reg.value("ppkws_index_corrupt_total") == 1.0
        assert load_index(svc._engine("net").public, index_path).pads.k == 2

    def test_direct_api_quarantines_without_a_request(self, tmp_path):
        """_warn outside a request must be a no-op, not a crash."""
        g = self._make_graph()
        index_path = str(tmp_path / "net.idx")
        with open(index_path, "w", encoding="utf-8") as fh:
            fh.write("not an index\n")
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", g, index_path=index_path)
        assert os.path.exists(index_path + ".corrupt")
        assert svc.networks() == ["net"]
