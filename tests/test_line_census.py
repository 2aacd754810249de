"""The line counter of tests/line_census.py on a small module."""

import line_census

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """One line."""
    s = """a string, not a docstring"""
    # an indented comment
    return x


class C:
    """Class docstring

    with a blank line inside."""
'''


def test_line_kinds_of_a_small_module():
    """Docstring lines by ast, blank ones inside included; comment lines by
    tokenize, a trailing comment leaving its line code; every line counted
    once."""
    assert line_census.line_kinds(SOURCE) == {
        "code": 5, "docstring": 6, "comment": 2, "blank": 6}
    assert sum(line_census.line_kinds(SOURCE).values()) == len(SOURCE.splitlines())
