"""Each Pauli label is checked once, where it enters the program.

``validate_label``, ``PauliSum(...)``, ``parse_hamiltonian`` and
``all_k_local_labels`` check labels; ``add``, ``scale``, ``conjugate`` and
``random_pauli_sum`` build from labels already checked.  The references
below are the single-pass forms that checked every label with a loop over
its characters, each time it was handed on: every result must equal
theirs (same labels in the same order, same float bits), and every error
must carry the same type and message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.instances import all_k_local_labels, random_diagonal_sum, random_pauli_sum
from hamcert.pauli import (
    COEFF_DROP_TOL,
    HamiltonianFormatError,
    PauliSum,
    add,
    commutes,
    conjugate,
    is_k_local,
    parse_hamiltonian,
    scale,
    validate_label,
    weight,
)


def _reference_validate(label):
    if not isinstance(label, str) or len(label) == 0:
        raise ValueError(f"Pauli label must be a nonempty string, got {label!r}.")
    for ch in label:
        if ch not in "IXYZ":
            raise ValueError(f"Invalid Pauli letter {ch!r} in label {label!r}.")
    return label


def _reference_terms(n, items):
    """The term map of ``PauliSum(n, items)``, checking as it goes."""
    accum = {}
    for label, coeff in items.items() if isinstance(items, dict) else items:
        _reference_validate(label)
        if len(label) != n:
            raise ValueError(f"Label {label!r} has length {len(label)}, expected {n}.")
        if set(label) == {"I"}:
            raise ValueError("The all-identity term is not allowed (operators are traceless).")
        value = accum.get(label, 0.0) + float(coeff)
        if not math.isfinite(value):
            raise ValueError(
                f"Coefficient for {label!r} is not finite: adding {coeff!r} gives {value!r}."
            )
        accum[label] = value
    return {p: accum[p] for p in sorted(accum) if abs(accum[p]) >= COEFF_DROP_TOL}


def _reference_parse(text):
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise HamiltonianFormatError(
                f"line {lineno}: expected '<coefficient> <label>', got {raw!r}."
            )
        coeff_text, label = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(
                f"line {lineno}: malformed coefficient {coeff_text!r}."
            ) from None
        if not math.isfinite(coeff):
            raise HamiltonianFormatError(
                f"line {lineno}: coefficient {coeff_text!r} is not finite."
            )
        try:
            _reference_validate(label)
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        if set(label) == {"I"}:
            raise HamiltonianFormatError(
                f"line {lineno}: the all-identity term is not allowed "
                "(operators are traceless)."
            )
        if n is None:
            n = len(label)
        elif len(label) != n:
            raise HamiltonianFormatError(
                f"line {lineno}: label {label!r} has length {len(label)}, "
                f"but the first term fixed the system size to {n}."
            )
        pairs.append((label, coeff))
    if n is None:
        raise HamiltonianFormatError("no terms found: the system size cannot be determined.")
    try:
        return n, _reference_terms(n, pairs)
    except ValueError as exc:
        raise HamiltonianFormatError(str(exc)) from None


def _outcome(build, *args):
    """``(n, [(label, float.hex)])`` of the sum built, or the error raised."""
    try:
        got = build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    n, terms = (got.n, got.terms) if isinstance(got, PauliSum) else got
    return n, [(p, c.hex()) for p, c in terms.items()]


# Coefficients whose duplicates cancel to zero or below COEFF_DROP_TOL
# (0.1 + 0.2 - 0.3) or overflow (1e308 twice).
COEFF_TEXTS = st.one_of(
    st.sampled_from(["0.1", "0.2", "-0.3", "-0.30000000000000004", "1e308", "-1e308",
                     "1e-15", "-0.0", "1_0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
SEPARATORS = st.sampled_from([" ", "\t", "   "])
COMMENTS = st.sampled_from(["", " # trailing", "# café", "\t#x 0.5 Q"])


def _line(coeff, sep, label, tail):
    return f"{coeff}{sep}{label}{tail}"


@st.composite
def hamiltonian_texts(draw):
    """Terms, comments and blank lines with LF or CRLF endings; half of the
    texts get one bad line somewhere."""
    n = draw(st.integers(1, 4))
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: s.strip("I"))
    term = st.builds(_line, COEFF_TEXTS, SEPARATORS, label, COMMENTS)
    lines = draw(st.lists(st.one_of(term, term, term, COMMENTS, st.just("   ")),
                          min_size=1, max_size=10))
    if draw(st.booleans()):
        bad_label = st.one_of(st.just("I" * n), st.text("IXYZ", min_size=1, max_size=5),
                              st.text("IXYZxQé", min_size=1, max_size=5))
        bad_coeff = st.sampled_from(["nan", "inf", "-Inf", "abc", "0x1p3"])
        bad = st.one_of(
            st.builds(_line, COEFF_TEXTS, SEPARATORS, bad_label, COMMENTS),
            st.builds(_line, bad_coeff, SEPARATORS, label, COMMENTS),
            st.sampled_from(["0.5", "0.5 X Y", "X 0.5"]),
        )
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, endings))


class TestValidateLabel:
    @pytest.mark.parametrize("label, bad", [("XAQ", "A"), ("xz", "x"), ("XZé", "é"),
                                            ("XY Z", " ")])
    def test_the_first_bad_letter_is_named(self, label, bad):
        with pytest.raises(ValueError) as exc:
            validate_label(label)
        assert str(exc.value) == f"Invalid Pauli letter {bad!r} in label {label!r}."

    @pytest.mark.parametrize("label", ["", None, 3, b"XZ", ["X"]])
    def test_empty_strings_and_non_strings_rejected(self, label):
        with pytest.raises(ValueError) as exc:
            validate_label(label)
        assert str(exc.value) == f"Pauli label must be a nonempty string, got {label!r}."

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(label=st.one_of(st.text(), st.text("IXYZ"), st.text("IXYZxQé")))
    def test_equals_the_letter_loop(self, label):
        def error(check):
            try:
                assert check(label) is label
            except ValueError as exc:
                return str(exc)

        assert error(validate_label) == error(_reference_validate)


class TestParseChecksOnce:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(text=hamiltonian_texts())
    def test_equals_the_per_line_route(self, text):
        assert _outcome(parse_hamiltonian, text) == _outcome(_reference_parse, text)

    def test_crlf_comments_and_cancelling_duplicates(self):
        text = "# café\r\n0.1 XZ\r\n\r\n0.2 XZ  # again\r\n-0.3 XZ\r\n1.5 ZI\r\n"
        assert parse_hamiltonian(text).terms == {"ZI": 1.5}
        assert _outcome(parse_hamiltonian, text) == _outcome(_reference_parse, text)

    @pytest.mark.parametrize("text", [
        "1e308 XI\n0.5 ZZ\n1e308 XI\n",
        "0.5 XI\n0.5 II\n",
        "0.5 XI\n0.5 XQ\n",
        "0.5 XI\n0.5 XIZ\n",
        "0.5 X Y\n",
        "nan X\n",
    ])
    def test_errors_keep_their_message_and_line(self, text):
        with pytest.raises(HamiltonianFormatError) as exc:
            parse_hamiltonian(text)
        with pytest.raises(HamiltonianFormatError) as want:
            _reference_parse(text)
        assert str(exc.value) == str(want.value)


class TestConstructorChecksAsItGoes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_equals_the_single_pass(self, data, n):
        label = st.one_of(st.text("IXYZ", min_size=n, max_size=n),
                          st.text("IXYZq", min_size=0, max_size=4), st.none())
        coeff = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 0.1, -0.1]))
        pairs = data.draw(st.lists(st.tuples(label, coeff), max_size=8))
        assert _outcome(PauliSum, n, pairs) == _outcome(lambda: (n, _reference_terms(n, pairs)))

    def test_an_overflow_before_a_bad_label_is_reported_first(self):
        with pytest.raises(ValueError, match="'X' is not finite"):
            PauliSum(1, [("X", 1e308), ("X", 1e308), ("Q", 1.0)])
        with pytest.raises(ValueError, match="Invalid Pauli letter 'Q'"):
            PauliSum(1, [("Q", 1.0), ("X", 1e308), ("X", 1e308)])


def sums(n, coeffs=None):
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: s.strip("I"))
    coeffs = coeffs or st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.sampled_from([1e308, -1e308, 0.1, -0.1, 0.2, -0.3]))
    return st.dictionaries(label, coeffs, max_size=8).map(lambda t: PauliSum(n, t))


class TestBuildersTrustStoredLabels:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_add_equals_the_validating_constructor(self, data, n):
        a, b = data.draw(sums(n)), data.draw(sums(n))
        merged = dict(a.terms)
        for p, c in b.items():
            merged[p] = merged.get(p, 0.0) + c
        assert _outcome(add, a, b) == _outcome(lambda: (n, _reference_terms(n, merged)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_scale_equals_the_validating_constructor(self, data, n):
        h = data.draw(sums(n))
        factor = data.draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([0.0, -1.0, 1e10, 1e-320])))
        want = {p: c * factor for p, c in h.items()}
        assert _outcome(scale, h, factor) == _outcome(lambda: (n, _reference_terms(n, want)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_conjugate_equals_the_validating_constructor(self, data, n):
        h = data.draw(sums(n))
        label = data.draw(st.one_of(st.text("IXYZ", min_size=n, max_size=n),
                                    st.text("IXYZq", max_size=4)))

        def reference():
            _reference_validate(label)
            if len(label) != n:
                raise ValueError(f"Conjugator length {len(label)} does not match n={n}.")
            return n, _reference_terms(
                n, {p: (c if commutes(label, p) else -c) for p, c in h.items()}
            )

        assert _outcome(conjugate, h, label) == _outcome(reference)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_max_weight_counts_the_stored_letters(self, data, n):
        h = data.draw(sums(n))
        want = max((weight(p) for p in h.labels()), default=0)
        assert h.max_weight() == want
        assert is_k_local(h, want)
        assert want == 0 or not is_k_local(h, want - 1)


def _reference_random_pauli_sum(n, k, rng, num_terms=None, letters="XYZ"):
    pool = all_k_local_labels(n, k, letters)
    if num_terms is None:
        num_terms = int(rng.integers(1, min(len(pool), 3 * n) + 1))
    num_terms = min(num_terms, len(pool))
    picks = rng.choice(len(pool), size=num_terms, replace=False)
    coeffs = rng.normal(size=num_terms)
    while not np.any(np.abs(coeffs) >= 1e-12):
        coeffs = rng.normal(size=num_terms)
    return n, _reference_terms(n, [(pool[int(i)], float(c)) for i, c in zip(picks, coeffs)])


class TestGeneratorsTrustTheirPool:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), data=st.data())
    def test_random_pauli_sum_equals_the_validating_constructor(self, n, data):
        k = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        num_terms = data.draw(st.one_of(st.none(), st.integers(1, 40)))
        letters = data.draw(st.sampled_from(["XYZ", "Z", "XY"]))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = _outcome(random_pauli_sum, n, k, rngs[0], num_terms, letters)
        assert got == _outcome(_reference_random_pauli_sum, n, k, rngs[1], num_terms, letters)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("n, k, num_terms, letters", [
        (4, 2, None, "XYZ"),
        (5, 2, 12, "Z"),
        # Above the pool size (3 labels): every label is drawn.
        (3, 1, 40, "Z"),
        (2, 2, 40, "XYZ"),
    ])
    def test_random_pauli_sum_equals_the_constructor_on_its_draws(self, n, k, num_terms, letters):
        for seed in range(20):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_pauli_sum(n, k, rng, num_terms, letters)
            pool = all_k_local_labels(n, k, letters)
            size = min(num_terms or int(replay.integers(1, min(len(pool), 3 * n) + 1)), len(pool))
            picks = replay.choice(len(pool), size=size, replace=False)
            want = PauliSum(n, [(pool[i], c) for i, c in zip(picks, replay.normal(size=size))])
            assert _outcome(lambda: got) == _outcome(lambda: want)
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_random_pauli_sum_drops_what_the_constructor_drops(self):
        class Tiny:
            """A generator whose normal draws include magnitudes at the drop tolerance."""

            def __init__(self):
                self.rng = np.random.default_rng(0)

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

            def normal(self, size):
                return np.array([0.5, COEFF_DROP_TOL / 2, -COEFF_DROP_TOL, 1e-13][:size])

        got = random_pauli_sum(3, 1, Tiny(), num_terms=4)
        picks = np.random.default_rng(0).choice(9, size=4, replace=False)
        pool = all_k_local_labels(3, 1)
        want = PauliSum(3, [(pool[i], c) for i, c in zip(picks, Tiny().normal(4))])
        assert _outcome(lambda: got) == _outcome(lambda: want)
        assert got.num_terms == 3

    @pytest.mark.parametrize("size", [1, 2, 7, 12, 100])
    def test_one_normal_call_is_as_many_scalar_draws(self, size):
        # suite_bonami draws each function's coefficients in one call.
        rng, loop = np.random.default_rng(size), np.random.default_rng(size)
        drawn = rng.normal(size=size).tolist()
        assert [c.hex() for c in drawn] == [loop.normal().hex() for _ in range(size)]
        assert rng.bit_generator.state == loop.bit_generator.state
        assert rng.normal() == loop.normal()

    # A repeated letter would repeat pool labels and weight their draws.
    @pytest.mark.parametrize("letters", ["Q", "XI", "I", "xy", "Xé", ("XY",), "", "ZZ", "XYX"])
    def test_letters_outside_xyz_rejected(self, letters):
        with pytest.raises(ValueError, match="Letters must be drawn from 'XYZ'"):
            all_k_local_labels(3, 2, letters)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="Letters must be drawn from 'XYZ'"):
            random_pauli_sum(3, 2, rng, letters=letters)
        # The pool is checked before any draw.
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("num_terms", [0, -2])
    def test_no_terms_rejected_before_any_draw(self, num_terms):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one term"):
            random_pauli_sum(3, 2, rng, num_terms=num_terms)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_every_pool_label_is_valid_and_k_local(self):
        for n, k, letters in [(4, 2, "XYZ"), (3, 3, "Z"), (5, 1, "XY")]:
            for label in all_k_local_labels(n, k, letters):
                assert len(label) == n and 1 <= weight(label) <= k
                assert set(label) <= set("I" + letters)

    def test_diagonal_sums_hold_only_z(self):
        h = random_diagonal_sum(5, 2, np.random.default_rng(3))
        assert h and all(set(p) <= {"I", "Z"} for p in h.labels())
