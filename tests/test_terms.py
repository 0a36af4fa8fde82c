from gspace import enumerate_all, principal, term_string


def test_terms_cover_small_censuses():
    for n in (1, 2, 3):
        names = tuple(str(i) for i in range(n))
        strings = [term_string(h, names) for h in enumerate_all(n)]
        assert None not in strings
        assert len(set(strings)) == len(strings)


def test_term_rendering(z3):
    e, a, ai = (principal(3, i) for i in range(3))
    assert term_string(e, z3.names) == "0"
    assert term_string(e & a, z3.names) == "0∧1"
    assert term_string(e & a & ai, z3.names) == "0∧1∧2"
    assert term_string(e | (a & ai), z3.names) == "0∨(1∧2)"
    assert term_string((e | a) & (e | ai) & (a | ai), z3.names) == \
        "(0∨1)∧(0∨2)∧(1∨2)"


def test_term_rendering_with_inverse_names():
    names = ("e", "a", "a⁻¹")
    e, a, ai = (principal(3, i) for i in range(3))
    assert term_string(e & (a | ai), names) == "e∧(a∨a⁻¹)"


def test_term_string_none_beyond_three():
    h = principal(4, 0)
    assert term_string(h, ("0", "1", "2", "3")) is None


def test_terms_match_structure(z2):
    # the four families over two points in term form
    names = z2.names
    strings = {term_string(h, names) for h in enumerate_all(2)}
    assert strings == {"0∧1", "0", "1", "0∨1"}
