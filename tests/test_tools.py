from conftest import load_script


def test_every_layer_runs():
    # the layer table calls public names of the package; one that went away
    # would otherwise break the tool only when someone runs it
    for name, call in load_script("tools", "layers").layers(64).items():
        assert call() is not None, name


def test_loc_counts_code_lines_only():
    text = '''"""Module docstring,
over two lines."""

# a comment line
x = 1  # a trailing comment


def f():
    """Docstring."""
    return x
'''
    assert load_script("tools", "loc").count(text) == (10, 3)
