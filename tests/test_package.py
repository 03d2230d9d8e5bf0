import inspect

import mrarc


def test_all_names_resolve():
    missing = [name for name in mrarc.__all__ if not hasattr(mrarc, name)]
    assert missing == []
    assert len(set(mrarc.__all__)) == len(mrarc.__all__)


def test_all_lists_every_public_function_and_class():
    public = {
        name
        for name, obj in vars(mrarc).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert sorted(public - set(mrarc.__all__)) == []
