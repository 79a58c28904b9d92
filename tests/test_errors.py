import copy
import pickle

import pytest

from radclust import errors
from radclust.errors import DegenerateComponentError, ParseError, RadclustError

# The attributes each class is built with; every other class takes a message alone.
ATTRIBUTES = {
    ParseError: [{"offset": 7}, {"line": 3}, {"offset": 7, "line": 3}],
    DegenerateComponentError: [{"component": 2}],
}


def every_class():
    classes, todo = [], [RadclustError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(classes, key=lambda cls: cls.__name__)


def test_every_class_of_the_module_is_covered():
    defined = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, RadclustError)}
    assert set(every_class()) == defined
    assert len(defined) == 9


@pytest.mark.parametrize("cls", every_class(), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("copier", [lambda e: pickle.loads(pickle.dumps(e)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_errors_survive_pickle_and_deepcopy(cls, copier):
    for attributes in ATTRIBUTES.get(cls, [{}]):
        error = cls("cell k=3 failed", **attributes)
        clone = copier(error)
        assert type(clone) is cls
        assert str(clone) == "cell k=3 failed" and clone.args == error.args
        assert vars(clone) == vars(error)
        assert all(getattr(clone, name) == value for name, value in attributes.items())
        assert clone.exit_code == cls.exit_code
