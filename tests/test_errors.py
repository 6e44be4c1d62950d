import pytest

from wzeta.errors import ParseError, naming


def test_naming_re_raises_the_same_error_prefixed_once():
    error = ParseError("unexpected ')'", 3, ("integer", "n"))
    with pytest.raises(ParseError) as raised:
        with naming("line 9: entry 'g_s1'"):
            raise error
    assert raised.value is error
    assert (raised.value.position, raised.value.expected) == (3, ("integer", "n"))
    assert str(raised.value) == ("line 9: entry 'g_s1': unexpected ')' at offset 3 "
                                 "(expected: integer, n)")
    assert raised.value.args == (str(raised.value),)


def test_naming_lets_other_exceptions_pass_unchanged():
    error = ValueError("not ours")
    with pytest.raises(ValueError) as raised:
        with naming("pair s1"):
            raise error
    assert raised.value is error and raised.value.args == ("not ours",)
    with naming("pair s1"):  # nothing raised: nothing to name
        pass
