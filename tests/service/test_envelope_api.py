"""Property tests for the wire shapes: every ProgramSpec / Submission /
ResultEnvelope the API can construct must survive a JSON round trip
unchanged, and malformed wire input must be rejected with
SpecificationError (never a bare KeyError/TypeError an attacker-shaped
client could use to crash a connection handler)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.api import (
    ENVELOPE_STATUSES,
    ProgramSpec,
    ResultEnvelope,
    Submission,
)
from repro.errors import SpecificationError

entities = st.text(
    alphabet="abcxyz.", min_size=1, max_size=8
).filter(lambda s: s.strip())
names = st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=12)

access_ops = st.one_of(
    st.tuples(st.just("read"), entities),
    st.tuples(st.just("add"), entities, st.integers(-100, 100)),
    st.tuples(st.just("set"), entities, st.integers(-100, 100)),
)
bp_ops = st.tuples(st.just("bp"), st.integers(1, 5))


@st.composite
def program_specs(draw):
    """Accesses with breakpoints legally interspersed (never leading,
    trailing, or adjacent)."""
    accesses = draw(st.lists(access_ops, min_size=1, max_size=6))
    ops: list[tuple] = []
    for i, access in enumerate(accesses):
        if i > 0 and draw(st.booleans()):
            ops.append(draw(bp_ops))
        ops.append(access)
    path = draw(
        st.lists(st.text(alphabet="pqr", min_size=1, max_size=3),
                 min_size=0, max_size=3)
    )
    return ProgramSpec(
        name=draw(names), ops=tuple(ops), path=tuple(path)
    )


@st.composite
def envelopes(draw):
    status = draw(st.sampled_from(sorted(ENVELOPE_STATUSES)))
    opt_int = st.one_of(st.none(), st.integers(0, 10**6))
    return ResultEnvelope(
        name=draw(names),
        status=status,
        serial_position=draw(opt_int),
        arrival_tick=draw(opt_int),
        commit_tick=draw(opt_int),
        latency_ticks=draw(opt_int),
        attempts=draw(st.integers(1, 50)),
        waits=draw(st.integers(0, 500)),
        result=draw(st.one_of(st.none(), st.integers(-10**6, 10**6))),
        abort_causes=tuple(
            draw(st.lists(st.text(max_size=40), max_size=4))
        ),
    )


class TestRoundTrips:
    @given(program_specs())
    def test_program_spec(self, spec):
        assert ProgramSpec.from_json(spec.to_json()) == spec

    @given(program_specs(), names, names)
    def test_submission(self, spec, client, key):
        sub = Submission(program=spec, client_id=client, idempotency_key=key)
        assert Submission.from_json(sub.to_json()) == sub

    @given(program_specs())
    def test_submission_key_defaults_to_name(self, spec):
        sub = Submission(program=spec)
        assert sub.idempotency_key == spec.name
        assert Submission.from_json(sub.to_json()) == sub

    @given(envelopes())
    def test_envelope(self, env):
        assert ResultEnvelope.from_json(env.to_json()) == env


class TestValidation:
    def test_leading_breakpoint(self):
        with pytest.raises(SpecificationError, match="between two accesses"):
            ProgramSpec("t", (("bp", 2), ("read", "x")))

    def test_trailing_breakpoint(self):
        with pytest.raises(SpecificationError, match="trailing"):
            ProgramSpec("t", (("read", "x"), ("bp", 2)))

    def test_adjacent_breakpoints(self):
        with pytest.raises(SpecificationError, match="between two accesses"):
            ProgramSpec(
                "t", (("read", "x"), ("bp", 2), ("bp", 3), ("read", "y"))
            )

    def test_no_accesses(self):
        with pytest.raises(SpecificationError):
            ProgramSpec("t", ())

    def test_unknown_op(self):
        with pytest.raises(SpecificationError, match="unknown op"):
            ProgramSpec("t", (("frob", "x"),))

    def test_wrong_arity(self):
        with pytest.raises(SpecificationError, match="arity"):
            ProgramSpec("t", (("add", "x"),))

    def test_non_int_breakpoint_level(self):
        with pytest.raises(SpecificationError, match="breakpoint level"):
            ProgramSpec(
                "t", (("read", "x"), ("bp", "two"), ("read", "y"))
            )

    def test_bool_breakpoint_level(self):
        with pytest.raises(SpecificationError, match="breakpoint level"):
            ProgramSpec(
                "t", (("read", "x"), ("bp", True), ("read", "y"))
            )

    @pytest.mark.parametrize(
        "value", ["str", {"a": 1}, [1], None, 1.5, True]
    )
    def test_set_value_must_be_an_int(self, value):
        """A non-int value would commit and then fail the next ``add``
        (or sum of reads) inside the engine."""
        with pytest.raises(SpecificationError, match="set value must be"):
            ProgramSpec("t", (("set", "x", value),))
        blob = json.dumps(
            {"name": "w1", "path": ["g"], "ops": [["set", "x", value]]}
        )
        with pytest.raises(SpecificationError, match="set value must be"):
            ProgramSpec.from_json(blob)

    @pytest.mark.parametrize("delta", [True, False, "1", 2.0])
    def test_add_delta_must_be_an_int(self, delta):
        with pytest.raises(SpecificationError, match="add delta must be"):
            ProgramSpec("t", (("add", "x", delta),))

    def test_unknown_wire_keys_rejected(self):
        blob = '{"name": "t", "ops": [["read", "x"]], "bogus": 1}'
        with pytest.raises(SpecificationError, match="unknown keys"):
            ProgramSpec.from_json(blob)

    def test_malformed_json(self):
        with pytest.raises(SpecificationError, match="malformed"):
            ProgramSpec.from_json("{nope")

    def test_deeply_nested_json(self):
        """Nesting past the parser's recursion limit is malformed input,
        not a ``RecursionError``."""
        blob = "[" * 200_000
        for decode in (ProgramSpec.from_json, Submission.from_json):
            with pytest.raises(SpecificationError, match="nested too deeply"):
                decode(blob)

    def test_non_object_json(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            ProgramSpec.from_json("[1, 2]")

    def test_unknown_status(self):
        with pytest.raises(SpecificationError, match="status"):
            ResultEnvelope(name="t", status="exploded")

    @given(st.text(max_size=60))
    def test_arbitrary_text_never_raises_bare_errors(self, text):
        """Any junk input fails with SpecificationError, nothing else."""
        for cls in (ProgramSpec, Submission, ResultEnvelope):
            try:
                cls.from_json(text)
            except SpecificationError:
                pass


class TestCompile:
    def test_compiled_result_is_sum_of_reads(self):
        from repro.api import make_scheduler
        from repro.core import KNest
        from repro.engine.runtime import Engine

        spec = ProgramSpec(
            "t",
            (("add", "x", 5), ("read", "x"), ("set", "y", 3), ("read", "y")),
        )
        nest = KNest.flat(["t"])
        engine = Engine(
            [spec.compile()], {"x": 10, "y": 0},
            make_scheduler("serial", nest), seed=0,
        )
        result = engine.run()
        assert result.results["t"] == 15 + 3
