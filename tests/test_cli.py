import pytest

import nanowords.cli
import nanowords.moves
from nanowords import CanonicalForm, ConsistencyError, Nanophrase, builtin_data, equivalent
from nanowords.cli import main
from nanowords.moves import PathStep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def remark_word(tmp_path):
    return write(tmp_path, "w1.txt", "proj: A=a_1_2\nphrase: A A\n")


@pytest.fixture
def empty_word(tmp_path):
    return write(tmp_path, "w2.txt", "phrase:\n")


class TestValidate:
    def test_valid_phrase(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a b\ntau: a=b\nproj: A=a B=b\nphrase: A B | B A\n")
        code, out, _ = run(capsys, "validate", f)
        assert code == 0 and "components=2" in out and "letters=2" in out

    def test_count_error_exits_2(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a\nproj: A=a\nphrase: A A A\n")
        code, _, err = run(capsys, "validate", f)
        assert code == 2 and "twice" in err

    def test_malformed_line_cites_line_number(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a b\ntau: a-b\nphrase:\n")
        code, _, err = run(capsys, "validate", f)
        assert code == 2 and "line 2" in err

    def test_builtin_conflicts_with_alpha(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a\nphrase:\n")
        code, _, err = run(capsys, "validate", f, "--builtin", "curves")
        assert code == 2 and "conflicts" in err


class TestInvariants:
    def test_remark_values(self, capsys, remark_word):
        code, out, _ = run(capsys, "invariants", remark_word,
                           "--builtin", "diagonal", "--k", "2")
        assert code == 0
        assert "lk: (a)" in out
        assert "clv: (1,1)" in out
        assert "conditions: satisfied" in out

    def test_empty_word_values(self, capsys, empty_word):
        code, out, _ = run(capsys, "invariants", empty_word,
                           "--builtin", "diagonal", "--k", "2")
        assert code == 0
        assert "lk: (1)" in out
        assert "clv: (0,0)" in out

    def test_phrase_level_report(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt",
                  "proj: A=a B=a\nphrase: A B A B\n")
        code, out, _ = run(capsys, "invariants", f, "--builtin", "curves")
        assert code == 0
        assert "So: 1:" in out and "T: 1:" in out

    def test_links_reports_only_guaranteed_names(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "proj: A=a+\nphrase: A A\n")
        code, out, _ = run(capsys, "invariants", f, "--builtin", "links")
        assert code == 0 and "lk:" in out and "So:" not in out

    def test_non_graph_r_is_input_error(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a\nR:\nproj: A=a\nphrase: A A\n")
        code, _, err = run(capsys, "invariants", f)
        assert code == 2 and "graph of tau" in err

    def test_a_records_off_diagonal_s_line_keeps_only_lk_and_clv(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a b\ntau: a=b\nS: a a a / a b a\n"
                                     "proj: A=a B=b\nphrase: A B A B\n")
        code, out, _ = run(capsys, "invariants", f)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()][3:] == ["lk", "clv"]

    def test_a_records_non_graph_r_line_guarantees_no_row(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: a b\ntau: a=b\nR: a=a b=b\n"
                                     "proj: A=a B=b\nphrase: A B A B\n")
        code, out, err = run(capsys, "invariants", f)
        assert (code, out) == (2, "")
        assert "no invariant is guaranteed under this move system" in err

    def test_custom_q_line_is_rejected_at_the_lifted_level(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "alpha: x y\ntau: x=y\nQ: x\nproj: A=x_1_2\nphrase: A A\n")
        code, out, err = run(capsys, "invariants", f, "--k", "2")
        assert (code, out) == (2, "")
        assert "custom Q/R lines are not supported at the lifted level" in err

    def test_ornaments_census(self, capsys, tmp_path):
        f = write(tmp_path, "w.txt", "proj: A=a_1_2 B=a_1_1\nphrase: A B B A\n")
        code, out, _ = run(capsys, "invariants", f, "--builtin", "ornaments", "--k", "2")
        assert code == 0 and "So: 1: 0; 2: 0" in out.splitlines()

    def test_tsv_format(self, capsys, remark_word):
        code, out, _ = run(capsys, "invariants", remark_word,
                           "--builtin", "diagonal", "--k", "2", "--format", "tsv")
        assert code == 0 and "lk\t(a)" in out


class TestEquiv:
    def test_doubled_letter_one_step(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "alpha: a\nproj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "alpha: a\nphrase:\n")
        code, out, _ = run(capsys, "equiv", f1, f2)
        assert code == 0
        assert "verdict: Equivalent" in out and "steps: 1" in out

    def test_lifted_q_blocks_and_lk_separates(self, capsys, remark_word, empty_word):
        code, out, _ = run(capsys, "equiv", remark_word, empty_word,
                           "--builtin", "diagonal", "--k", "2",
                           "--max-letters", "3", "--max-states", "4000")
        assert code == 0
        assert "verdict: NotEquivalent" in out
        assert "separated-by: lk" in out

    def test_square_word_reduces_via_triple_data(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "proj: A=a B=a\nphrase: A B A B\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, _ = run(capsys, "equiv", f1, f2, "--builtin", "diagonal",
                           "--max-letters", "8", "--max-states", "500000")
        assert code == 0 and "verdict: Equivalent" in out

    def test_free_orbit_square_word_is_separated(self, capsys, tmp_path):
        # Over the two-symbol free-orbit alphabet the square word does not
        # reduce; the census separates it from the empty word.
        f1 = write(tmp_path, "a.txt", "proj: A=a B=a\nphrase: A B A B\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, _ = run(capsys, "equiv", f1, f2, "--builtin", "curves",
                           "--max-letters", "4", "--max-states", "20000")
        assert code == 0
        assert "verdict: NotEquivalent" in out
        assert "separated-by: So" in out or "separated-by" not in out

    def test_unknown_exit_code(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "proj: A=a B=a\nphrase: A B A B\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, _ = run(capsys, "equiv", f1, f2, "--builtin", "diagonal",
                           "--max-letters", "8", "--max-states", "40")
        assert code == 4 and "verdict: Unknown" in out

    def test_invariants_fail_before_the_search(self, capsys, tmp_path, monkeypatch):
        # Lifted invariants need one-component words; that error must come
        # before any search, since the invariant rows are the certificate.
        def no_search(*args, **kwargs):
            raise AssertionError("equivalent() was called")

        monkeypatch.setattr(nanowords.moves, "equivalent", no_search)
        f1 = write(tmp_path, "a.txt", "proj: A=a_1_2 B=a_1_1\nphrase: A B | B A\n")
        f2 = write(tmp_path, "b.txt", "proj: A=a_1_1\nphrase: A | A\n")
        code, out, err = run(capsys, "equiv", f1, f2, "--builtin", "curves", "--k", "2")
        assert (code, out) == (2, "") and "expected a one-component word" in err

    @pytest.mark.parametrize("tamper, message", [
        (lambda path, start: path[:-1], "assembled path does not end at the target"),
        (lambda path, start: (PathStep(path[0].site, start),) + path[1:], "replay diverged"),
    ], ids=["truncated", "altered-result"])
    def test_a_path_failing_its_replay_is_an_internal_inconsistency(
            self, capsys, tmp_path, monkeypatch, tamper, message):
        # equivalent replays each path it assembles, the only replay left,
        # so a corrupted path must stop the library call and the command.
        assemble = nanowords.moves._assemble_path

        def corrupted(visited, meet, moves):
            start = CanonicalForm.from_key(next(iter(visited[0])))
            return tamper(assemble(visited, meet, moves), start)

        monkeypatch.setattr(nanowords.moves, "_assemble_path", corrupted)
        curves = builtin_data("curves")
        doubled = Nanophrase(curves.base_alphabet, [("A", "A")], {"A": "a"})
        empty = Nanophrase(curves.base_alphabet, [()], {})
        with pytest.raises(ConsistencyError, match=message):
            equivalent(doubled, empty, curves.base_moves, 3, 100)
        f1 = write(tmp_path, "a.txt", "proj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, err = run(capsys, "equiv", f1, f2, "--builtin", "curves")
        assert (code, out) == (3, "")
        assert err.startswith("internal inconsistency") and message in err

    def test_alphabet_mismatch(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "alpha: a\nproj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "alpha: a b\nproj: A=a\nphrase: A A\n")
        code, _, err = run(capsys, "equiv", f1, f2)
        assert code == 2

    def test_zero_state_budget_is_rejected(self, capsys, tmp_path):
        # 0 is an explicit budget, not a request for the default.
        f1 = write(tmp_path, "a.txt", "proj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, _, err = run(capsys, "equiv", f1, f2, "--builtin", "diagonal",
                           "--max-states", "0")
        assert code == 2 and "must be positive" in err


class TestLiftProject:
    def test_lift_then_project_round_trip(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt", "proj: A=a B=a\nphrase: A B | A B\n")
        code, out, _ = run(capsys, "lift", f, "--builtin", "curves")
        assert code == 0
        assert "proj: A=a_1_2 B=a_1_2" in out
        assert "phrase: A B A B" in out
        lifted_file = write(tmp_path, "w.txt",
                            "\n".join(l for l in out.splitlines()
                                      if not l.startswith("#")) + "\n")
        code, out2, _ = run(capsys, "project", lifted_file,
                            "--builtin", "curves", "--k", "2")
        assert code == 0
        assert "phrase: A B | A B" in out2

    def test_project_rejects_condition_violation(self, capsys, tmp_path):
        f = write(tmp_path, "w.txt", "proj: A=a_1_1 B=a_2_2\nphrase: A B A B\n")
        code, _, err = run(capsys, "project", f, "--builtin", "curves", "--k", "2")
        assert code == 2 and "condition (2)" in err

    def test_lift_explicit_alphabet_keeps_base_sections(self, capsys, tmp_path):
        f = write(tmp_path, "p.txt",
                  "alpha: x y\ntau: x=y\nproj: A=x\nphrase: A | A\n")
        code, out, _ = run(capsys, "lift", f)
        assert code == 0
        assert "alpha: x y" in out and "proj: A=x_1_2" in out

    def test_lift_and_project_keep_the_records_s_line(self, capsys, tmp_path):
        # S = {(a,a,a)} admits no M3 on these all-b words, so the search is
        # inconclusive; under the default diagonal S one M3 relates them.
        system = "alpha: a b\ntau: a=b\nS: a a a\n"
        words = ("A B A C B C", "B A C A C B")

        def verdict(*files):
            code, out, _ = run(capsys, "equiv", *files, "--k", "1", "--max-letters", "3")
            return code, out.splitlines()[0]

        def rewrite(*argv):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "S: a a a" in out.splitlines()
            return write(tmp_path, f"{argv[0]}-{argv[1].rsplit('/', 1)[-1]}", out)

        unknown = (4, "verdict: Unknown")
        bases = [write(tmp_path, f"p{i}.txt", f"{system}proj: A=b B=b C=b\nphrase: {w}\n")
                 for i, w in enumerate(words)]
        assert verdict(*bases) == unknown
        assert verdict(*[rewrite("lift", f) for f in bases]) == unknown
        lifted = [write(tmp_path, f"w{i}.txt",
                        f"{system}proj: A=b_1_1 B=b_1_1 C=b_1_1\nphrase: {w}\n")
                  for i, w in enumerate(words)]
        assert verdict(*lifted) == unknown
        assert verdict(*[rewrite("project", f, "--k", "1") for f in lifted]) == unknown

    @pytest.mark.parametrize("line", ["Q:", "R: a=b b=a"])
    def test_lift_refuses_the_records_q_and_r_lines(self, capsys, tmp_path, line):
        # The lifted record could not keep them: reread under the default Q,
        # B B | (empty) would reach the empty phrase by one M1 although its
        # letter-count parity separates it when Q is empty.
        system = f"alpha: a b\ntau: a=b\n{line}\n"
        f = write(tmp_path, "p.txt", f"{system}proj: B=b\nphrase: B B | \u2205\n")
        g = write(tmp_path, "q.txt", f"{system}phrase: \u2205 | \u2205\n")
        if line == "Q:":
            code, out, _ = run(capsys, "equiv", f, g)
            assert code == 0 and out.splitlines()[0] == "verdict: NotEquivalent"
        code, out, err = run(capsys, "lift", f)
        assert (code, out) == (2, "")
        assert "custom Q/R lines are not supported at the lifted level" in err


class TestEnumerate:
    def test_three_words_on_two_letters(self, capsys, tmp_path):
        f = write(tmp_path, "a.txt", "alpha: a\n")
        code, out, _ = run(capsys, "enumerate", f, "--n", "2")
        lines = [l for l in out.splitlines() if ";" in l]
        assert code == 0 and len(lines) == 3
        assert "total: 3" in out

    def test_tsv_indexing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--builtin", "diagonal",
                           "--n", "1", "--format", "tsv")
        assert code == 0 and out.splitlines() == ["1\t1 1 ; a"]


class TestClassify:
    def test_doubled_word_joins_empty_class(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "curves", "--n", "1")
        assert code == 0
        assert "consistency: ok" in out
        classes = [l for l in out.splitlines() if l.startswith("class ")]
        # AA reduces to the empty word for both projections: one class.
        assert len(classes) == 1 and "[size 3]" in classes[0]

    def test_zero_letters_single_class(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "curves", "--n", "0")
        assert code == 0
        assert "classes: 1" in out

    def test_truncation_reports_unknown_pairs(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "curves", "--n", "2",
                           "--max-letters", "4", "--max-states", "10")
        assert code == 0
        assert "truncated" in out and "unknown" in out

    def test_zero_state_budget_is_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--builtin", "curves", "--n", "1",
                           "--max-states", "0")
        assert code == 2 and "must be positive" in err

    def test_ornaments_lifted_classes(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "ornaments", "--k", "2", "--n", "1")
        assert code == 0 and "classes: 3" in out.splitlines()

    def test_tsv_members(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "diagonal", "--n", "1",
                           "--format", "tsv")
        assert code == 0
        assert any(l.startswith("class\t1\t2") for l in out.splitlines())

    def test_output_is_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "classify", "--builtin", "curves", "--n", "2")
        _, second, _ = run(capsys, "classify", "--builtin", "curves", "--n", "2")
        assert first == second


class TestCountArguments:
    """--k and --n out of range are input errors on every command."""

    @pytest.mark.parametrize("command,extra", [
        ("validate", ()), ("canon", ()), ("invariants", ("--builtin", "curves")),
        ("validate", ("--builtin", "curves")), ("project", ("--builtin", "curves")),
    ])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_k_on_word_commands(self, capsys, tmp_path, command, extra, k):
        text = "proj: A=a\nphrase: A A\n" if extra else "alpha: a\nproj: A=a\nphrase: A A\n"
        f = write(tmp_path, "p.txt", text)
        code, out, err = run(capsys, command, f, *extra, "--k", k)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--k must be at least 1" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_k_on_equiv(self, capsys, tmp_path, k):
        f1 = write(tmp_path, "a.txt", "proj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, err = run(capsys, "equiv", f1, f2, "--builtin", "diagonal", "--k", k)
        assert (code, out) == (2, "") and "--k must be at least 1" in err

    @pytest.mark.parametrize("command", ["enumerate", "classify"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_k_on_set_commands(self, capsys, command, k):
        code, out, err = run(capsys, command, "--builtin", "curves", "--n", "1", "--k", k)
        assert (code, out) == (2, "") and "--k must be at least 1" in err

    @pytest.mark.parametrize("command", ["enumerate", "classify"])
    def test_negative_n(self, capsys, command):
        code, out, err = run(capsys, command, "--builtin", "curves", "--n", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--n must not be negative" in err

    @pytest.mark.parametrize("command,flag", [
        ("lift", ("--k", "2")), ("validate", ("--format", "tsv")),
        ("canon", ("--format", "tsv")), ("lift", ("--format", "tsv")),
        ("project", ("--format", "tsv")),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, tmp_path, command, flag):
        f = write(tmp_path, "p.txt", "proj: A=a\nphrase: A A\n")
        with pytest.raises(SystemExit) as exc:
            main([command, f, "--builtin", "curves", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestInputErrors:
    """Errors the library raises reach stderr with exit 2 and no stdout."""

    @pytest.mark.parametrize("command", ["invariants", "project"])
    def test_lifted_phrase_needs_one_component(self, capsys, tmp_path, command):
        f = write(tmp_path, "w.txt", "proj: A=a_1_2 B=a_1_1\nphrase: A B | B A\n")
        code, out, err = run(capsys, command, f, "--builtin", "curves", "--k", "2")
        assert (code, out) == (2, "") and "expected a one-component word" in err

    def test_equiv_of_a_phrase_and_a_lifted_word(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "proj: A=a\nphrase: A A\n")
        f2 = write(tmp_path, "b.txt", "proj: A=a_1_1\nphrase: A A\n")
        code, out, err = run(capsys, "equiv", f1, f2, "--builtin", "curves")
        assert (code, out) == (2, "") and "different move systems" in err

    def test_equiv_letter_budget_below_the_inputs(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "proj: A=a B=a\nphrase: A B A B\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, err = run(capsys, "equiv", f1, f2, "--builtin", "curves",
                             "--max-letters", "1")
        assert (code, out) == (2, "") and "--max-letters must be at least 2" in err

    def test_classify_letter_budget_below_n(self, capsys):
        code, out, err = run(capsys, "classify", "--builtin", "curves", "--n", "2",
                             "--max-letters", "1")
        assert (code, out) == (2, "") and "cover the enumeration" in err


class TestBudgetVerdicts:
    def test_equiv_closed_by_the_letter_budget_is_unknown(self, capsys, tmp_path):
        f1 = write(tmp_path, "a.txt", "proj: A=a B=a\nphrase: A B A B\n")
        f2 = write(tmp_path, "b.txt", "phrase:\n")
        code, out, _ = run(capsys, "equiv", f1, f2, "--builtin", "diagonal")
        assert code == 4 and "verdict: Unknown" in out and "letter budget" in out
        code, out, _ = run(capsys, "equiv", f1, f2, "--builtin", "diagonal",
                           "--max-letters", "6")
        assert code == 0 and "verdict: Equivalent" in out

    @pytest.mark.parametrize("builtin,n,classes", [("curves", "2", 5), ("diagonal", "3", 3)])
    def test_classify_lists_same_key_classes_cut_by_the_budget(self, capsys, builtin, n,
                                                               classes):
        code, out, _ = run(capsys, "classify", "--builtin", builtin, "--n", n)
        lines = out.splitlines()
        assert code == 0 and "search: complete" in lines
        assert f"classes: {classes}" in lines
        assert sum(line.startswith("unknown: ") for line in lines) == 3

    def test_certified_classes_leave_no_unknown_pairs(self, capsys, tmp_path):
        # Empty Q and R: no move needs room, so every closure is certified
        # and the five classes that share the empty key are distinct.
        f = write(tmp_path, "a.txt", "alpha: a\nQ:\nR:\n")
        code, out, _ = run(capsys, "classify", f, "--n", "2")
        lines = out.splitlines()
        assert code == 0 and "classes: 5" in lines and "unknown pairs: none" in lines
        assert sum(line.startswith("class ") and line.endswith("] ") for line in lines) == 5
