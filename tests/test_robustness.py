"""Robustness tests: pathological inputs must never crash the engines."""

import pytest

from repro.automata.optimize import compile_re_to_fsa
from repro.dfa import DfaEngine, determinize
from repro.engine.imfant import IMfantEngine
from repro.engine.infant import INfantEngine
from repro.engine.streaming import StreamingMatcher
from repro.mfsa.merge import merge_fsas

from conftest import compile_ruleset_fsas

ALL_BYTES = bytes(range(256))


class TestFullByteRange:
    def test_imfant_handles_every_byte(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["a.b", "[^a]z"]))
        for backend in ("python", "lazy"):
            result = IMfantEngine(mfsa, backend=backend).run(ALL_BYTES * 2)
            assert result.stats.chars_processed == 512

    def test_dot_excludes_newline_everywhere(self):
        fsa = compile_re_to_fsa("a.b")
        engine = INfantEngine(fsa)
        assert engine.run(b"a\nb").matches == set()
        assert engine.run(bytes([ord("a"), 0, ord("b")])).matches == {(0, 3)}

    def test_dfa_engine_full_range(self):
        dfa = determinize(compile_ruleset_fsas(["\\x00\\xff"]))
        assert DfaEngine(dfa).run(bytes([0, 255])).matches == {(0, 2)}

    def test_negated_class_spans_high_bytes(self):
        fsa = compile_re_to_fsa("[^a]")
        assert INfantEngine(fsa).run(bytes([0xF0])).matches == {(0, 1)}


class TestDegenerateStreams:
    @pytest.mark.parametrize("stream", [b"", b"\x00", b"\xff" * 64])
    def test_every_engine_survives(self, stream):
        patterns = ["abc", "a*", "[x-z]{2}"]
        fsas = compile_ruleset_fsas(patterns)
        mfsa = merge_fsas(fsas)
        IMfantEngine(mfsa).run(stream)
        IMfantEngine(mfsa, backend="lazy").run(stream)
        for rule_id, fsa in fsas:
            INfantEngine(fsa, rule_id).run(stream)
        matcher = StreamingMatcher(mfsa)
        matcher.feed(stream)

    def test_long_dead_stream_keeps_state_small(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["needle"]))
        stats = IMfantEngine(mfsa).run(b"\x01" * 5000).stats
        assert stats.active_pair_total == 0
        assert stats.match_count == 0

    def test_repeated_runs_are_stateless(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["ab"]))
        engine = IMfantEngine(mfsa)
        assert engine.run("ab").matches == {(0, 2)}
        assert engine.run("b").matches == set()  # no carry-over
        assert engine.run("ab").matches == {(0, 2)}


class TestWideClasses:
    def test_dot_star_over_binary(self):
        fsa = compile_re_to_fsa("S.*E")
        filler = bytes(b for b in range(1, 255) if b not in (ord("S"), ord("E")))
        payload = b"S" + filler + b"E"
        # the filler contains \n (0x0a), which '.' excludes: no match
        assert INfantEngine(fsa).run(payload).matches == set()
        no_newline = bytes(b for b in filler if b != 0x0A)
        assert INfantEngine(fsa).run(b"S" + no_newline + b"E").matches

    def test_merging_wide_classes(self):
        mfsa = merge_fsas(compile_ruleset_fsas(["[^\\n]{3}", ".{3}"]))
        result = IMfantEngine(mfsa).run(b"abcd")
        assert (0, 3) in result.matches and (1, 4) in result.matches
