import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endorse_dyn.core import ModelParams, uniform_initial
from endorse_dyn.data import (
    InteractionSequence,
    _sorted_periods,
    _write_csv,
    aggregate_counts,
    convert_rankings_topk,
    load_edge_list,
    load_rankings,
    restrict_top_placers,
    save_edge_list,
    simulate_sequence,
)
from endorse_dyn.errors import DomainError, FormatError


def write(tmp_path, text, name="edges.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestInteractionSequence:
    def test_basic_properties(self):
        seq = InteractionSequence(
            deltas=(np.array([[0, 2], [1, 0]]), np.array([[0, 0], [3, 0]])),
            node_labels=("a", "b"),
            period_labels=("1", "2"),
        )
        assert seq.n == 2 and seq.t_len == 2
        assert seq.m_bar == 3.0
        assert not hasattr(seq, "m_t")  # m_bar is the count critical values use

    def test_m_bar_averages_the_used_periods(self):
        deltas = tuple(np.array([[0, c], [0, 0]]) for c in (1, 3, 5))
        seq = InteractionSequence(deltas, ("a", "b"), ("1", "2", "3"))
        a0, used = seq.used_periods()
        assert np.array_equal(a0, deltas[0]) and len(used) == 2
        assert seq.m_bar == 4.0  # the first period is A(0), not data
        warm = seq.with_a0(np.ones((2, 2)))
        assert len(warm.used_periods()[1]) == 3
        assert warm.m_bar == 3.0

    def test_matrices_are_read_only_copies(self):
        d = np.array([[0.0, 1.0], [0.0, 0.0]])
        seq = InteractionSequence((d,), ("a", "b"), ("1",))
        d[0, 1] = 9.0
        assert seq.deltas[0][0, 1] == 1.0
        with pytest.raises(ValueError):
            seq.deltas[0][0, 1] = 5.0

    def test_with_a0(self):
        seq = InteractionSequence((np.zeros((2, 2)) + 1,), ("a", "b"), ("1",))
        assert seq.a0 is None
        seq2 = seq.with_a0(np.eye(2))
        assert np.array_equal(seq2.a0, np.eye(2))
        assert seq.a0 is None  # original untouched

    @pytest.mark.parametrize(
        "kw",
        [
            dict(deltas=(), node_labels=("a", "b"), period_labels=()),
            dict(deltas=(np.zeros((2, 2)),), node_labels=("a",), period_labels=("1",)),
            dict(deltas=(np.zeros((3, 3)),), node_labels=("a", "b"), period_labels=("1",)),
            dict(
                deltas=(np.array([[0, -1], [0, 0]]),),
                node_labels=("a", "b"),
                period_labels=("1",),
            ),
            dict(deltas=(np.zeros((2, 2)),), node_labels=("a", "b"), period_labels=("1", "2")),
            dict(
                deltas=(np.zeros((2, 2)),),
                node_labels=("a", "b"),
                period_labels=("1",),
                a0=np.zeros((3, 3)),
            ),
            dict(deltas=(np.array([[0, np.inf], [0, 0]]),), node_labels=("a", "b"),
                 period_labels=("1",)),
            dict(deltas=(np.array([[0, np.nan], [0, 0]]),), node_labels=("a", "b"),
                 period_labels=("1",)),
            dict(deltas=(np.zeros((2, 3)),), node_labels=("a", "b"), period_labels=("1",)),
            dict(deltas=(np.zeros((2, 2)),), node_labels=("a", "b"), period_labels=("1",),
                 a0=np.array([[0, -1], [0, 0]])),
            dict(deltas=(np.zeros((2, 2)),), node_labels=("a", "b"), period_labels=("1",),
                 a0=np.array([[0, np.nan], [0, 0]])),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            InteractionSequence(**kw)

    @pytest.mark.parametrize("kw,label", [
        (dict(node_labels=("a", "a")), "a"),
        (dict(period_labels=("1", "1")), "1"),
        # period labels compare as the text the interchange format writes
        (dict(period_labels=(1, "1")), "1"),
    ])
    def test_rejects_repeated_labels(self, kw, label):
        # a repeated node label would make a label map drop a node
        with pytest.raises(DomainError, match="label " + re.escape(repr(label)) + " repeats"):
            _two_period_seq(**kw)


class TestLoadEdgeList:
    def test_tabulates_and_sorts_labels(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,b,a,2\n2,a,b,1\n1,a,b,3\n")
        seq = load_edge_list(p)
        assert seq.node_labels == ("a", "b")
        assert seq.period_labels == ("1", "2")
        assert np.array_equal(seq.deltas[0], [[0, 3], [2, 0]])
        assert np.array_equal(seq.deltas[1], [[0, 1], [0, 0]])

    def test_duplicate_rows_sum(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\nw,a,b,1\nw,a,b,4\n")
        seq = load_edge_list(p)
        assert seq.deltas[0][0, 1] == 5

    def test_numeric_period_ordering(self, tmp_path):
        p = write(
            tmp_path,
            "period,source,target,count\n10,a,b,1\n2,a,b,1\n1,a,b,1\n",
        )
        assert load_edge_list(p).period_labels == ("1", "2", "10")

    def test_string_periods_sort_lexicographically(self, tmp_path):
        p = write(
            tmp_path,
            "period,source,target,count\nw10,a,b,1\nw2,a,b,1\nw1,a,b,1\n",
        )
        assert load_edge_list(p).period_labels == ("w1", "w10", "w2")

    def test_mixed_period_labels_sort_lexicographically(self, tmp_path):
        p = write(
            tmp_path,
            "period,source,target,count\n2,a,b,1\nx,a,b,1\n10,a,b,1\n1,a,b,1\n",
        )
        assert load_edge_list(p).period_labels == ("1", "10", "2", "x")

    @pytest.mark.parametrize("first,second", [("1", "1.0"), ("1.0", "1")])
    def test_equal_numeric_keys_break_ties_by_label(self, tmp_path, first, second):
        p = write(
            tmp_path,
            f"period,source,target,count\n2,a,b,1\n{first},a,b,1\n{second},b,a,1\n",
        )
        assert load_edge_list(p).period_labels == ("1", "1.0", "2")

    @pytest.mark.parametrize("order", [("nan", "2", "10"), ("10", "nan", "2")])
    def test_nan_period_label_sorts_as_text(self, tmp_path, order):
        rows = "".join(f"{p},a,b,1\n" for p in order)
        p = write(tmp_path, "period,source,target,count\n" + rows)
        assert load_edge_list(p).period_labels == ("10", "2", "nan")

    def test_empty_period_reports_line(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,a,b,1\n,a,b,1\n")
        with pytest.raises(FormatError) as exc:
            load_edge_list(p)
        assert "line 3" in str(exc.value)

    def test_header_mismatch(self, tmp_path):
        p = write(tmp_path, "time,source,target,count\n1,a,b,1\n")
        with pytest.raises(FormatError) as exc:
            load_edge_list(p)
        assert "line 1" in str(exc.value)

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,a,b,1\n1,a,b\n")
        with pytest.raises(FormatError) as exc:
            load_edge_list(p)
        assert "line 3" in str(exc.value)

    def test_bad_label(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,a b,c,1\n")
        with pytest.raises(FormatError):
            load_edge_list(p)

    def test_non_integer_count(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,a,b,1.5\n")
        with pytest.raises(FormatError):
            load_edge_list(p)

    @pytest.mark.parametrize("value", ["1_0", "٣", "1.0", "0x1"])
    def test_counts_are_ascii_decimal_integers(self, tmp_path, value):
        # int() alone would read 1_0 as 10 and the Arabic-Indic digit as 3
        p = write(tmp_path, f"period,source,target,count\n1,a,b,1\n1,b,a,{value}\n")
        with pytest.raises(FormatError, match="^line 3: count must be an integer") as exc:
            load_edge_list(p)
        assert exc.value.line == 3
        p = write(tmp_path, "period,source,target,count\n1,a,b, +2 \n1,b,a,07\n")
        assert load_edge_list(p).deltas[0].tolist() == [[0, 2], [7, 0]]

    def test_what_the_csv_module_refuses_carries_the_line(self, tmp_path):
        # a field over the csv module's size limit (and, before Python 3.11,
        # a NUL byte) fails inside the reader, not in the row checks
        p = write(tmp_path, "period,source,target,count\n1,a,b,1\n1,b,a," + "9" * 200_000 + "\n")
        with pytest.raises(FormatError, match="^line 3: field larger than field limit") as exc:
            load_edge_list(p)
        assert exc.value.line == 3

    def test_nonpositive_count(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n1,a,b,0\n")
        with pytest.raises(DomainError) as exc:
            load_edge_list(p)
        assert "line 2" in str(exc.value)

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "period,source,target,count\n")
        with pytest.raises(FormatError) as exc:
            load_edge_list(p)
        assert "no interactions" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(FormatError, match="^empty file, expected header "
                                              "period,source,target,count$") as exc:
            load_edge_list(p)
        assert exc.value.line is None

    @pytest.mark.parametrize("value", ["9" * 5000, "9" * 310, str(2**53 + 1), str(-(2**53) - 1),
                                       "+000" + str(10**16)],
                             ids=["5000-nines", "310-nines", "2**53+1", "-(2**53+1)", "10**16"])
    def test_a_count_above_2_53_in_size_is_named_by_its_line(self, tmp_path, value):
        # a float64 matrix would round 2**53 + 1 and overflow on 310 nines
        p = write(tmp_path, f"period,source,target,count\n1,a,b,1\n1,b,a,{value}\n")
        with pytest.raises(FormatError, match="^line 3: count is above 2\\*\\*53 in size$"):
            load_edge_list(p)

    def test_a_sum_above_2_53_is_named_by_the_line_that_passes_it(self, tmp_path):
        rows = f"1,a,b,{2**52}\n1,b,a,1\n1,a,b,{2**52}\n1,a,b,1\n"
        p = write(tmp_path, "period,source,target,count\n" + rows)
        with pytest.raises(FormatError, match="^line 5: summed count for a->b is above 2"):
            load_edge_list(p)

    def test_counts_up_to_2_53_load_exactly(self, tmp_path):
        rows = f"1,a,b,{2**53}\n1,b,a,{2**52}\n1,b,a,{2**52}\n"
        p = write(tmp_path, "period,source,target,count\n" + rows)
        assert load_edge_list(p).deltas[0].tolist() == [[0, 2**53], [2**53, 0]]


class TestSaveEdgeList:
    def test_round_trip(self, tmp_path):
        seq = InteractionSequence(
            deltas=(np.array([[0, 2], [0, 0]]), np.array([[0, 0], [7, 0]])),
            node_labels=("alice", "bob"),
            period_labels=("3", "11"),
        )
        p = tmp_path / "out.csv"
        save_edge_list(seq, p)
        back = load_edge_list(p)
        assert back.node_labels == seq.node_labels
        assert back.period_labels == seq.period_labels
        for d1, d2 in zip(back.deltas, seq.deltas):
            assert np.array_equal(d1, d2)

    def test_zero_cells_omitted_and_lf_endings(self, tmp_path):
        seq = InteractionSequence((np.array([[0, 1], [0, 0]]),), ("a", "b"), ("1",))
        p = tmp_path / "out.csv"
        save_edge_list(seq, p)
        raw = p.read_bytes()
        assert raw == b"period,source,target,count\n1,a,b,1\n"

    def test_rejects_fractional_counts(self, tmp_path):
        seq = InteractionSequence((np.array([[0, 0.5], [0, 0]]),), ("a", "b"), ("1",))
        with pytest.raises(DomainError):
            save_edge_list(seq, tmp_path / "out.csv")

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(1, 9)),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_random(self, tmp_path_factory, data):
        deltas = [np.zeros((3, 3)) for _ in range(3)]
        touched = set()
        for t, i, j, c in data:
            deltas[t][i, j] += c
            touched.update((i, j))
        assume(len(touched) >= 2)  # loader needs two distinct labels
        keep = [t for t in range(3) if deltas[t].sum() > 0]
        seq = InteractionSequence(
            deltas=tuple(deltas[t] for t in keep),
            node_labels=("x", "y", "z"),
            period_labels=tuple(str(t) for t in keep),
        )
        p = tmp_path_factory.mktemp("rt") / "e.csv"
        save_edge_list(seq, p)
        back = load_edge_list(p)
        # loader keeps only labels that occur in edges; compare on the
        # surviving sub-block
        idx = [i for i, lab in enumerate(seq.node_labels) if lab in back.node_labels]
        assert back.period_labels == seq.period_labels
        for d1, d2 in zip(back.deltas, seq.deltas):
            assert np.array_equal(d1, d2[np.ix_(idx, idx)])


class TestWriteCsv:
    """The one writer of every CSV the package writes."""

    def test_header_then_string_and_field_rows_in_utf8_with_lf(self, tmp_path):
        p = tmp_path / "t.csv"
        _write_csv(p, ("x", "label"), iter(["1,a", ("2", "Zoë"), ["3", "東京"]]))
        assert p.read_bytes() == "x,label\n1,a\n2,Zoë\n3,東京\n".encode("utf-8")

    def test_no_header_line_when_header_is_none(self, tmp_path):
        p = tmp_path / "t.csv"
        _write_csv(p, None, [["0.5", "1.5"], "2.0,3.0"])
        assert p.read_bytes() == b"0.5,1.5\n2.0,3.0\n"
        _write_csv(p, "only,header", [])
        assert p.read_bytes() == b"only,header\n"


def _two_period_seq(node_labels=("a", "b"), period_labels=("1", "2"), empty=()):
    deltas = tuple(np.zeros((2, 2)) if t in empty else np.array([[0.0, 1.0], [2.0, 0.0]])
                   for t in range(len(period_labels)))
    return InteractionSequence(deltas, node_labels, period_labels)


class TestSaveRefusals:
    """save_edge_list writes only what load_edge_list reads back as the same
    labelled sequence; a refusal names the label and writes no file."""

    @pytest.mark.parametrize("seq,label", [
        (_two_period_seq(node_labels=("a,b", "c")), "a,b"),
        (_two_period_seq(node_labels=("a b", "c")), "a b"),
        (_two_period_seq(period_labels=("b", "a")), "b"),
        (_two_period_seq(period_labels=("10", "9")), "10"),
        (_two_period_seq(period_labels=("x,y", "z")), "x,y"),
        (_two_period_seq(period_labels=('"q"', "z")), '"q"'),
        (_two_period_seq(period_labels=(" 1", "2")), " 1"),
        (_two_period_seq(period_labels=("1", "")), ""),
        (_two_period_seq(period_labels=("a\nb", "c")), "a\nb"),
        # in text order with "x", in numeric order without it; "x" is empty
        # and a reload drops it, so "10" and "9" would come back swapped
        (_two_period_seq(period_labels=("10", "9", "x"), empty=(2,)), "10"),
    ])
    def test_refuses_labels_that_do_not_read_back(self, tmp_path, seq, label):
        p = tmp_path / "out.csv"
        with pytest.raises(DomainError, match="label " + re.escape(repr(label))):
            save_edge_list(seq, p)
        assert not p.exists()

    def test_refuses_fractional_counts_before_writing(self, tmp_path):
        seq = InteractionSequence((np.array([[0, 1.0], [0, 0]]), np.array([[0, 0.5], [0, 0]])),
                                  ("a", "b"), ("1", "2"))
        p = tmp_path / "out.csv"
        with pytest.raises(DomainError, match="not an integer"):
            save_edge_list(seq, p)
        assert not p.exists()

    @pytest.mark.parametrize("d", [np.zeros((3, 3)), np.diag([0.0, 2.0, 0.0])])
    def test_refuses_data_touching_fewer_than_two_nodes(self, tmp_path, d):
        p = tmp_path / "out.csv"
        with pytest.raises(DomainError, match="fewer than 2 nodes"):
            save_edge_list(InteractionSequence((d,), ("a", "b", "c"), ("1",)), p)
        assert not p.exists()

    def test_empty_periods_and_edgeless_nodes_are_written_and_dropped(self, tmp_path):
        # the format cannot carry them; the rest reads back unchanged
        d = np.zeros((3, 3))
        d[0, 2] = 4
        seq = InteractionSequence((d, np.zeros((3, 3))), ("a", "b", "c"), (1, 2))
        p = tmp_path / "out.csv"
        save_edge_list(seq, p)
        back = load_edge_list(p)
        assert back.period_labels == ("1",) and back.node_labels == ("a", "c")
        assert np.array_equal(back.deltas[0], [[0, 4], [0, 0]])


_node_label = st.from_regex(r"[A-Za-z0-9_.\-]{1,3}", fullmatch=True)
_period_text = st.text(
    st.characters(blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)),
    min_size=1, max_size=3,
).filter(lambda p: p == p.strip())


@st.composite
def _savable_sequences(draw):
    nodes = draw(st.lists(_node_label, min_size=2, max_size=4, unique=True))
    periods = draw(st.one_of(st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True),
                             st.lists(_period_text, min_size=1, max_size=4, unique=True)))
    n, periods = len(nodes), list(_sorted_periods([str(p) for p in periods]))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(periods) * n * n,
                           max_size=len(periods) * n * n))
    deltas = np.array(counts, dtype=float).reshape(len(periods), n, n)
    return InteractionSequence(tuple(deltas), tuple(nodes), tuple(periods))


class TestSaveRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(seq=_savable_sequences())
    def test_a_written_file_reads_back_as_the_sequence(self, tmp_path_factory, seq):
        p = tmp_path_factory.mktemp("rt") / "e.csv"
        try:
            save_edge_list(seq, p)
        except DomainError:
            # only a sequence the format cannot carry is refused, and unwritten
            assert not p.exists()
            kept = [t for t, d in enumerate(seq.deltas) if d.any()]
            labels = [seq.period_labels[t] for t in kept]
            touched = sum(d.sum(axis=0) + d.sum(axis=1) for d in seq.deltas)
            assert (list(_sorted_periods(labels)) != labels
                    or np.count_nonzero(touched) < 2)
            return
        back = load_edge_list(p)
        kept = [t for t, d in enumerate(seq.deltas) if d.any()]
        touched = np.flatnonzero(sum(d.sum(axis=0) + d.sum(axis=1) for d in seq.deltas))
        order = sorted(touched, key=lambda i: seq.node_labels[i])
        assert back.period_labels == tuple(seq.period_labels[t] for t in kept)
        assert back.node_labels == tuple(seq.node_labels[i] for i in order)
        for d_back, t in zip(back.deltas, kept):
            assert np.array_equal(d_back, seq.deltas[t][np.ix_(order, order)])


class TestLoadRankings:
    HEADER = "period,source,target,rank\n"

    def test_tabulates_rank_matrices(self, tmp_path):
        p = write(
            tmp_path,
            self.HEADER + "10,b,a,1\n10,a,b,1\n\n2,a,b,1\n2,b,a,1\n",
            name="ranks.csv",
        )
        mats, nodes, periods = load_rankings(p)
        assert nodes == ("a", "b")
        assert periods == ("2", "10")
        assert all(m.dtype.kind == "i" for m in mats)
        assert np.array_equal(mats[0], [[0, 1], [1, 0]])
        seq = convert_rankings_topk(mats, k=1, node_labels=nodes, period_labels=periods)
        assert seq.period_labels == ("2", "10")

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("", 1, "expected header"),
            ("1,a,b,1\n1,a b,c,1\n", 3, "bad node label"),
            ("1,a,b,1\n1,b,a,first\n", 3, "rank must be an integer"),
            ("1,a,b,1\n\n,b,a,1\n", 4, "empty period label"),
            ("1,a,b,1\n1,b,a,1\n1,a,b,2\n", 4, "duplicate ranking for a->b"),
            ("1,a,b,1\n1,b,a," + "9" * 20 + "\n", 3, "rank is above 2**53 in size"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, body, line, message):
        header = "period,source,target,count\n" if line == 1 else self.HEADER
        p = write(tmp_path, header + body, name="ranks.csv")
        with pytest.raises(FormatError) as exc:
            load_rankings(p)
        assert exc.value.line == line
        assert f"line {line}: {message}" in str(exc.value)


# text that a CSV row holds as one unquoted field on one line
_FIELD_TEXT = st.text(st.characters(blacklist_characters=',"\r\n',
                                    blacklist_categories=("Cs",)), max_size=6)
_LABEL = st.from_regex(r"[A-Za-z0-9_.\-]{1,4}", fullmatch=True)
_CORRUPTIONS = {"count": ("fields", "label", "value", "period", "below-one"),
                "rank": ("fields", "label", "value", "period", "duplicate")}


@st.composite
def _corrupted_file(draw, value_name):
    """(file text, 1-based line of the one corrupted row, corruption).

    The other rows are valid, and so is the whole file without the
    corruption; blank lines may follow any row.
    """
    rows = draw(st.lists(st.tuples(_LABEL, _LABEL, _LABEL, st.integers(1, 9)),
                         min_size=2, max_size=6, unique_by=lambda r: r[:3]))
    blank_after = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    kind = draw(st.sampled_from(_CORRUPTIONS[value_name]))
    at = draw(st.integers(1 if kind == "duplicate" else 0, len(rows) - 1))
    period, src, dst, value = fields = [str(x) for x in rows[at]]
    if kind == "fields":
        fields = draw(st.sampled_from([fields[:1], fields[:2], fields[:3],
                                       fields + ["1"], fields + ["1", "1"]]))
    elif kind == "label":
        bad = draw(_FIELD_TEXT.filter(
            lambda x: not re.fullmatch(r"[A-Za-z0-9_.\-]+", x.strip())))
        fields[draw(st.sampled_from([1, 2]))] = bad
    elif kind == "value":
        fields[3] = draw(_FIELD_TEXT.filter(lambda x: not re.fullmatch(r"[+-]?[0-9]+", x.strip())))
    elif kind == "period":
        fields[0] = draw(st.text(" \t", max_size=3))
    elif kind == "below-one":
        fields[3] = str(draw(st.integers(-9, 0)))
    else:  # a ranking of an earlier row's (period, source, target) again
        fields[:3] = [str(x) for x in rows[draw(st.integers(0, at - 1))][:3]]
    lines = [",".join(str(x) for x in row) for row in rows]
    lines[at] = ",".join(fields)
    text, line = ",".join(("period", "source", "target", value_name)) + "\n", None
    for index, (row, blank) in enumerate(zip(lines, blank_after)):
        text += row + "\n" + ("\n" if blank else "")
        if index == at:
            line = text.count("\n") - blank
    return text, line, kind


class TestFuzzedLoaders:
    """One corrupted row in an otherwise valid file: the error names its line."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value_name=st.sampled_from(["count", "rank"]))
    def test_a_corrupted_row_is_named_by_its_line(self, tmp_path_factory, data, value_name):
        text, line, kind = data.draw(_corrupted_file(value_name))
        p = tmp_path_factory.mktemp("fuzz") / "rows.csv"
        p.write_text(text, encoding="utf-8")
        load = load_edge_list if value_name == "count" else load_rankings
        if kind == "below-one":
            # the one row error that is a DomainError, not a FormatError
            with pytest.raises(DomainError, match=f"^line {line}: count must be >= 1"):
                load(p)
            return
        with pytest.raises(FormatError) as exc:
            load(p)
        assert exc.value.line == line, (kind, text)
        assert str(exc.value).startswith(f"line {line}: ")


class TestConvertRankings:
    def _ranking(self, n, order_by_row):
        """order_by_row[i] lists the other nodes from most to least preferred."""
        r = np.zeros((n, n), dtype=int)
        for i, order in enumerate(order_by_row):
            for rank, j in enumerate(order, start=1):
                r[i, j] = rank
        return r

    def test_topk_boundary(self):
        r = self._ranking(4, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        seq = convert_rankings_topk([r], k=2)
        d = seq.deltas[0]
        assert d.sum() == 8  # every row endorses exactly k others
        assert d[0, 1] == 1 and d[0, 2] == 1 and d[0, 3] == 0
        assert np.all(np.diag(d) == 0)

    def test_k_equal_n_minus_one_endorses_everyone(self):
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        seq = convert_rankings_topk([r], k=2)
        assert seq.deltas[0].sum() == 6

    def test_default_labels(self):
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        seq = convert_rankings_topk([r], k=1)
        assert seq.node_labels == ("v0", "v1", "v2")
        assert seq.period_labels == (0,)

    def test_invalid_permutation_reports_position(self):
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        r[1, 0] = 2  # duplicate rank in row 1
        with pytest.raises(FormatError) as exc:
            convert_rankings_topk([r], k=1)
        assert "ranker 1" in str(exc.value)

    def test_invalid_permutation_names_labels_when_given(self):
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        r[1, 0] = 2
        with pytest.raises(FormatError) as exc:
            convert_rankings_topk([r, r], k=1, node_labels=("a", "b", "c"),
                                  period_labels=("1998", "1999"))
        assert "period '1998', ranker 'b'" in str(exc.value)

    @pytest.mark.parametrize("rank", [1.5, 1.0 + 1e-12, np.nan, np.inf])
    def test_non_integral_rank_is_refused(self, rank):
        # read as rank 1 by a truncating check but as no top-1 rank by the
        # endorsement rule, 1.5 would leave ranker 0 endorsing no one
        r = np.array([[0, rank, 2], [1, 0, 2], [1, 2, 0]])
        with pytest.raises(FormatError, match="period 0, ranker 0: row is not a permutation"):
            convert_rankings_topk([r], k=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_loop_over_cells_for_integer_and_float_ranks(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        r = self._ranking(n, [rng.permutation([j for j in range(n) if j != i])
                              for i in range(n)])
        np.fill_diagonal(r, rng.integers(-9, 9, n))  # the diagonal is ignored
        for k in range(1, n):
            loop = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if j != i and r[i, j] <= k:
                        loop[i, j] = 1.0
            for ranks in (r, r.astype(float)):
                assert np.array_equal(convert_rankings_topk([ranks], k=k).deltas[0], loop)

    def test_refuses_no_periods_and_a_period_of_the_wrong_shape(self):
        with pytest.raises(DomainError, match="need at least one ranking period"):
            convert_rankings_topk([], k=1)
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        with pytest.raises(DomainError, match=r"period '1999': ranking matrix shape "
                                              r"\(2, 3\) != \(3,3\)"):
            convert_rankings_topk([r, r[:2]], k=1, period_labels=("1998", "1999"))

    @pytest.mark.parametrize("k", [3, 0, 1.5])
    def test_k_out_of_range(self, k):
        r = self._ranking(3, [[1, 2], [0, 2], [0, 1]])
        with pytest.raises(DomainError):
            convert_rankings_topk([r], k=k)


class TestWindowsAndRestriction:
    def _seq(self):
        d1 = np.array([[0, 5, 0], [1, 0, 0], [0, 2, 0]], dtype=float)
        d2 = np.array([[0, 0, 1], [0, 0, 3], [1, 0, 0]], dtype=float)
        d3 = np.array([[0, 1, 0], [0, 0, 0], [4, 0, 0]], dtype=float)
        return InteractionSequence(
            deltas=(d1, d2, d3),
            node_labels=("a", "b", "c"),
            period_labels=("1", "2", "3"),
        )

    def test_aggregate_all_and_windowed(self):
        seq = self._seq()
        assert np.array_equal(aggregate_counts(seq), np.sum(seq.deltas, axis=0))
        assert np.array_equal(aggregate_counts(seq, window=("2", "3")),
                              seq.deltas[1] + seq.deltas[2])

    def test_empty_window_raises(self):
        with pytest.raises(DomainError):
            aggregate_counts(self._seq(), window=("7", "9"))

    def test_window_keys_cover_labels_and_bounds_at_once(self):
        seq = InteractionSequence(
            (np.ones((2, 2)), np.ones((2, 2))), ("a", "b"), ("w1", "w2")
        )
        with pytest.raises(DomainError):
            aggregate_counts(seq, window=("1", "2"))  # text order: no w-label inside
        assert aggregate_counts(seq, window=("w1", "w1"))[0, 1] == 1

    def test_restrict_keeps_top_receivers(self):
        # received totals: a = 6, b = 8, c = 4, so top 2 keeps a and b
        seq = restrict_top_placers(self._seq(), 2)
        assert seq.node_labels == ("a", "b")
        assert np.array_equal(seq.deltas[0], [[0, 5], [1, 0]])

    def test_restrict_ignores_self_loops(self):
        d = np.array([[9, 1, 0], [0, 0, 2], [0, 2, 0]], dtype=float)
        seq = InteractionSequence((d,), ("a", "b", "c"), ("1",))
        # received excluding diagonal: a = 0, b = 3, c = 2
        out = restrict_top_placers(seq, 2)
        assert out.node_labels == ("b", "c")

    def test_restrict_tie_breaks_lexicographically(self):
        d = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        seq = InteractionSequence((d,), ("a", "b", "c"), ("1",))
        out = restrict_top_placers(seq, 2)  # all receive 1; keep a, b
        assert out.node_labels == ("a", "b")

    def test_restrict_windows_periods_and_subsets_a0(self):
        seq = self._seq().with_a0(np.arange(9, dtype=float).reshape(3, 3))
        out = restrict_top_placers(seq, 2, window=("1", "2"))
        assert out.period_labels == ("1", "2")
        assert out.t_len == 2
        # received in window: a = 2, b = 7, c = 4, so b and c survive
        assert out.node_labels == ("b", "c")
        assert np.array_equal(out.a0, [[4, 5], [7, 8]])

    def test_restrict_count_bounds(self):
        with pytest.raises(DomainError):
            restrict_top_placers(self._seq(), 1)
        with pytest.raises(DomainError):
            restrict_top_placers(self._seq(), 4)

    def test_restrict_rejects_a_fractional_count(self):
        with pytest.raises(DomainError, match="count"):
            restrict_top_placers(self._seq(), 2.5)


class TestSimulateSequence:
    def test_carries_a0_and_is_deterministic(self):
        p = ModelParams(lam=0.9, beta=(1.0, -0.5), m=4, score_kind="rootdegree", seed=9)
        a0 = uniform_initial(4, 4)
        s1 = simulate_sequence(p, a0, periods=6)
        s2 = simulate_sequence(p, a0, periods=6)
        assert np.array_equal(s1.a0, a0)
        assert s1.t_len == 6
        assert all(np.array_equal(d1, d2) for d1, d2 in zip(s1.deltas, s2.deltas))
        assert [d.sum() for d in s1.deltas] == [4] * 6

    def test_matches_trajectory_engine_stream(self):
        from endorse_dyn.sim import run

        p = ModelParams(lam=0.8, beta=(2.0, 0.0), m=2, score_kind="springrank", seed=3)
        a0 = uniform_initial(3, 2)
        seq = simulate_sequence(p, a0, periods=5)
        traj = run(p, a0=a0, steps=5)
        # replay the recursion from the sequence and land on the same state
        a = a0.copy()
        for d in seq.deltas:
            a = p.lam * a + (1 - p.lam) * d
        assert np.allclose(a, traj.a_final, atol=1e-12)

    def test_rejects_zero_periods(self):
        p = ModelParams(lam=0.9)
        with pytest.raises(DomainError):
            simulate_sequence(p, uniform_initial(3, 1), periods=0)

    def test_rejects_fractional_periods(self):
        with pytest.raises(DomainError, match="periods"):
            simulate_sequence(ModelParams(lam=0.9), uniform_initial(3, 1), periods=2.5)
