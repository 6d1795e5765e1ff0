"""0-d object arrays nested in one another, or in themselves."""

import numpy as np


def nested(value, depth):
    """value inside depth levels of 0-d object arrays."""
    for _ in range(depth):
        outer = np.empty((), object)
        outer[()] = value
        value = outer
    return value


def nested_in_itself():
    """A 0-d object array that holds itself."""
    array = np.empty((), object)
    array[()] = array
    return array
