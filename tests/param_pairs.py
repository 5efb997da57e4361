"""The (value, grad) pairs of dense layers, for tests that edit or check parameters.

Layers keep no parameter lists of their own; the model's one table is
`ForecastModel.layers`. A test that works on bare layers lists them here.
"""


def param_pairs(*layers):
    """(value, grad) of each layer's weight, then its bias, layers in the order given."""
    pairs = []
    for layer in layers:
        pairs += [(layer.weight, layer.weight_grad), (layer.bias, layer.bias_grad)]
    return pairs
