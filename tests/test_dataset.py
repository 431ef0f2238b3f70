import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllascore.dataset import (Cohort, filter_cohort, load_manifest,
                                save_manifest, split_by_groups, split_fragments)
from syllascore.errors import (DegenerateInput, EmptyCohort, ParseError,
                               SyllascoreError, ValidationError)


def _write_manifest(tmp_path, body, with_files=True):
    path = tmp_path / "manifest.txt"
    path.write_text(body, encoding="utf-8")
    if with_files:
        for line in body.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            rel = line.split(",")[4]
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"")
    return path


MINIMAL = """\
#sample_rate_hz=16000
#patient P sex=m
P,1,sa,gost100,audio/p_1_sa.wav,1
P,1,so,gost100,audio/p_1_so.wav,1
P,1,su,gost100,audio/p_1_su.wav,1
P,2,sa,gost100,audio/p_2_sa.wav,0
P,2,so,gost100,audio/p_2_so.wav,0
P,2,su,gost100,audio/p_2_su.wav,0
"""


class TestLoadManifest:
    def test_minimal_two_sessions(self, tmp_path):
        m = load_manifest(_write_manifest(tmp_path, MINIMAL))
        assert len(m.records) == 6
        assert m.sample_rate_hz == 16000
        assert m.patients() == ["P"]
        assert m.patient_sex == {"P": "m"}
        assert {r.class_label for r in m.records} == {0, 1}

    def test_missing_pairing_names_the_triple(self, tmp_path):
        body = MINIMAL.replace("P,2,sa,gost100,audio/p_2_sa.wav,0\n", "")
        with pytest.raises(ValidationError) as err:
            load_manifest(_write_manifest(tmp_path, body))
        msg = str(err.value)
        assert "P" in msg and "2" in msg and "sa" in msg

    def test_duplicate_triple_rejected(self, tmp_path):
        body = MINIMAL + "P,1,sa,gost100,audio/p_1_sa.wav,1\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(_write_manifest(tmp_path, body))

    def test_drop_incomplete_removes_only_bad_patient(self, tmp_path):
        body = MINIMAL + (
            "#patient Q sex=f\n"
            "Q,1,sa,gost100,audio/q_1_sa.wav,1\n"
        )
        path = _write_manifest(tmp_path, body)
        with pytest.raises(ValidationError):
            load_manifest(path)
        m = load_manifest(path, drop_incomplete=True)
        assert m.patients() == ["P"]
        assert "Q" not in m.patient_sex

    def test_label_session_consistency(self, tmp_path):
        bad = MINIMAL.replace("P,1,sa,gost100,audio/p_1_sa.wav,1",
                              "P,1,sa,gost100,audio/p_1_sa.wav,0")
        with pytest.raises(ValidationError, match="session 1"):
            load_manifest(_write_manifest(tmp_path, bad))
        bad = MINIMAL + "P,3,sa,gost100,audio/p_3_sa.wav,1\n"
        with pytest.raises(ValidationError, match="no class label"):
            load_manifest(_write_manifest(tmp_path, bad))

    def test_rehab_session_with_expert_mark_only(self, tmp_path):
        body = MINIMAL + "P,3,sa,gost100,audio/p_3_sa.wav,,1\n"
        m = load_manifest(_write_manifest(tmp_path, body))
        rec = [r for r in m.records if r.session_index == 3][0]
        assert rec.class_label is None
        assert rec.expert_mark == 1

    def test_missing_header_is_parse_error(self, tmp_path):
        body = MINIMAL.replace("#sample_rate_hz=16000\n", "")
        with pytest.raises(ParseError, match="sample_rate"):
            load_manifest(_write_manifest(tmp_path, body))

    def test_unknown_syllable_set(self, tmp_path):
        body = MINIMAL.replace("gost100", "gost55")
        with pytest.raises(ParseError, match="gost55"):
            load_manifest(_write_manifest(tmp_path, body))

    def test_missing_audio_file(self, tmp_path):
        path = _write_manifest(tmp_path, MINIMAL)
        (tmp_path / "audio/p_2_su.wav").unlink()
        with pytest.raises(ValidationError, match="p_2_su"):
            load_manifest(path)

    def test_missing_manifest_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.txt")

    def test_save_load_identity(self, tmp_path):
        body = MINIMAL + "P,3,sa,gost100,audio/p_3_sa.wav,,0\n"
        m1 = load_manifest(_write_manifest(tmp_path, body))
        out = tmp_path / "copy" / "manifest.txt"
        save_manifest(m1, out)
        for rel in {r.audio_path for r in m1.records}:
            (out.parent / rel).parent.mkdir(parents=True, exist_ok=True)
            (out.parent / rel).write_bytes(b"")
        m2 = load_manifest(out)
        assert m2.records == m1.records
        assert m2.sample_rate_hz == m1.sample_rate_hz
        assert m2.patient_sex == m1.patient_sex


TWO_PATIENTS = MINIMAL + (
    "#patient Q sex=f\n"
    "Q,1,sa,gost100,audio/q_1_sa.wav,1\n"
    "Q,2,sa,gost100,audio/q_2_sa.wav,0\n"
)


@pytest.fixture(scope="module")
def minimal_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    _write_manifest(root, MINIMAL)
    return root


# Appended lines: records built from fields that are mostly valid, alone or mixed in any
# order with raw bytes, text, and comma- or space-joined tokens.
TEXT = st.text(max_size=6).map(str.encode)
TOKENS = TEXT | st.binary(max_size=6) | st.sampled_from(
    [b"", b"P", b"0", b"1", b"3", b"sa", b"gost100", b"audio/p_1_sa.wav", b"#patient", b"sex=f", b"\xff"])
FIELDS = ([b"P", b"Q"], [b"1", b"2", b"3", b"4"], [b"sa", b"su"], [b"gost100", b"GOST100"],
          [b"audio/p_1_sa.wav", b"audio/none.wav", b"a\x00b", b"x" * 300])
TAILS = st.sampled_from([[], [b""], [b"", b"1"], [b"0"], [b"1"], [b"", b"2"]])
RECORDS = st.builds(lambda fields, tail: b",".join(list(fields) + tail),
                    st.tuples(*(st.sampled_from(values) for values in FIELDS)), TAILS)
OTHER = (st.binary(max_size=30) | st.text(max_size=30).map(str.encode)
         | st.lists(TOKENS, max_size=8).map(b",".join)
         | st.lists(TOKENS, max_size=3).map(lambda t: b"#" + b" ".join(t))
         | TOKENS.map(lambda t: b"#sample_rate_hz=" + t))
LINES = st.lists(RECORDS, min_size=1, max_size=4) | st.builds(
    lambda a, b: a + b, st.lists(RECORDS, max_size=3),
    st.lists(OTHER, min_size=1, max_size=3)).flatmap(st.permutations)


@settings(max_examples=200, deadline=None)
@given(lines=LINES, drop_incomplete=st.booleans())
def test_appended_lines_raise_only_package_errors(minimal_dir, lines, drop_incomplete):
    path = minimal_dir / "fuzzed.txt"
    path.write_bytes(MINIMAL.encode() + b"\n".join(lines) + b"\n")
    try:
        load_manifest(path, drop_incomplete=drop_incomplete)
    except SyllascoreError:
        pass


class TestFilterCohort:
    def test_all_is_identity(self, tmp_path):
        m = load_manifest(_write_manifest(tmp_path, TWO_PATIENTS))
        assert filter_cohort(m, Cohort.all()) is m

    def test_individual_keeps_one_patient_and_is_idempotent(self, tmp_path):
        m = load_manifest(_write_manifest(tmp_path, TWO_PATIENTS))
        sub = filter_cohort(m, Cohort.individual("P"))
        assert sub.patients() == ["P"]
        assert len(sub.records) == 6
        again = filter_cohort(sub, Cohort.individual("P"))
        assert again.records == sub.records

    def test_sex_cohort(self, tmp_path):
        m = load_manifest(_write_manifest(tmp_path, TWO_PATIENTS))
        assert filter_cohort(m, Cohort.sex("f")).patients() == ["Q"]

    def test_empty_cohort(self, tmp_path):
        m = load_manifest(_write_manifest(tmp_path, MINIMAL))
        with pytest.raises(EmptyCohort):
            filter_cohort(m, Cohort.sex("f"))
        with pytest.raises(EmptyCohort):
            filter_cohort(m, Cohort.individual("nobody"))

    def test_parse(self):
        assert Cohort.parse("all") == Cohort.all()
        assert Cohort.parse("individual:P7") == Cohort.individual("P7")
        assert Cohort.parse("sex:f") == Cohort.sex("f")
        for bad in ("", "sex:x", "individual:", "men"):
            with pytest.raises(ValueError):
                Cohort.parse(bad)


class TestSplitFragments:
    def test_exact_stratification(self):
        labels = np.array([0, 1] * 5)
        split = split_fragments(10, labels, ratio=0.8, seed=42)
        assert split.train_indices.size == 8
        assert split.test_indices.size == 2
        assert labels[split.train_indices].sum() == 4
        assert labels[split.test_indices].sum() == 1

    def test_determinism(self):
        labels = np.array([0, 1] * 5)
        a = split_fragments(10, labels, ratio=0.8, seed=42)
        b = split_fragments(10, labels, ratio=0.8, seed=42)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)
        c = split_fragments(10, labels, ratio=0.8, seed=43)
        assert not np.array_equal(a.train_indices, c.train_indices)

    def test_corpus_scale_share(self):
        # balanced corpus of 102322 fragments: per class round(0.8 * 51161)
        # = 40929, so the train side holds 81858 fragments
        n = 102322
        labels = np.zeros(n, dtype=int)
        labels[: n // 2] = 1
        split = split_fragments(n, labels, ratio=0.8, seed=0)
        assert abs(split.train_indices.size - 81858) <= 1
        assert split.train_indices.size + split.test_indices.size == n

    def test_single_class_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            split_fragments(6, np.ones(6), ratio=0.8, seed=0)

    def test_too_few(self):
        with pytest.raises(DegenerateInput):
            split_fragments(4, np.array([0, 1, 0, 1]), ratio=0.8, seed=0)

    def test_disjoint_cover_fuzz(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            if np.unique(labels).size < 2:
                continue
            split = split_fragments(n, labels, ratio=0.8, seed=trial)
            merged = np.concatenate([split.train_indices, split.test_indices])
            assert np.array_equal(np.sort(merged), np.arange(n))

    def test_permutation_equivalence(self):
        # permuting the items and mapping the assignment back yields a split
        # with identical per-class train/test composition
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 40)
        base = split_fragments(40, labels, ratio=0.8, seed=9)
        perm = rng.permutation(40)
        permuted = split_fragments(40, labels[perm], ratio=0.8, seed=9)
        mapped_train = perm[permuted.train_indices]
        mapped_test = perm[permuted.test_indices]
        assert np.array_equal(np.sort(np.concatenate([mapped_train, mapped_test])), np.arange(40))
        for cls in (0, 1):
            assert (labels[mapped_train] == cls).sum() == (labels[base.train_indices] == cls).sum()
            assert (labels[mapped_test] == cls).sum() == (labels[base.test_indices] == cls).sum()


class TestSplitByGroups:
    def test_groups_stay_together(self):
        groups = ["a", "a", "a", "b", "b", "c", "c", "d", "e", "f"]
        labels = np.array([1, 1, 1, 0, 0, 1, 1, 0, 1, 0])
        split = split_by_groups(groups, labels, ratio=0.8, seed=3)
        for side in (split.train_indices, split.test_indices):
            present = {groups[i] for i in side}
            for g in present:
                members = [i for i, k in enumerate(groups) if k == g]
                assert all(i in side for i in members)

    def test_mixed_label_group_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            split_by_groups(["a", "a", "b", "c", "d"], np.array([1, 0, 1, 0, 1]))
