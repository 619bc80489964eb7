"""Shared fixtures of the test suite.

The expensive fixtures (a trained reference model and its approximate
executor) are session-scoped and deliberately tiny so the whole suite stays
fast while still exercising the full train → quantize → approximate-inference
pipeline on a real (if small) network.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.product_kernels import LUTKernel
from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.simulation.inference import ApproximateExecutor, LUTProduct
from repro.simulation.metrics import accuracy


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small, easy synthetic dataset used by the training-dependent tests."""
    config = SyntheticCifarConfig(
        num_classes=4,
        image_size=16,
        train_per_class=40,
        test_per_class=10,
        noise_std=0.10,
        confusion=0.20,
        seed=7,
    )
    return make_synthetic_cifar(config)


@pytest.fixture(scope="session")
def trained_tiny_model(tiny_dataset):
    """A small VGG-13-style model trained on the tiny dataset (session-scoped)."""
    model = build_model(
        "vgg13",
        num_classes=tiny_dataset.num_classes,
        base_width=8,
        rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, SGD(learning_rate=0.08), rng=np.random.default_rng(0))
    trainer.fit(
        tiny_dataset.train_images,
        tiny_dataset.train_labels,
        epochs=3,
        batch_size=32,
    )
    return model


@pytest.fixture(scope="session")
def tiny_executor(trained_tiny_model, tiny_dataset):
    """Approximate executor calibrated on the tiny dataset."""
    return ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:64])


class StreamingLUTProduct(LUTProduct):
    """A LUT product whose kernels stream their error terms tap by tap.

    :class:`~repro.core.product_kernels.LUTKernel` streams on its own once a
    layer's error matrix exceeds ``DEFAULT_MAX_ERROR_MATRIX_BYTES`` (a
    512-tap, 512-filter layer does); the tiny test networks never get
    there, so this model compiles with a zero cap.  Its own fingerprint
    keeps its kernels apart from the compiled-LUT ones in an executor's
    kernel cache, and ``compiled`` records every kernel it built, so a test
    can tell that the streaming path ran.
    """

    def __init__(self, multiplier):
        super().__init__(multiplier)
        self.compiled: list[LUTKernel] = []

    def compile(self, weight_codes, control_variate):
        kernel = LUTKernel(weight_codes, self.lut, max_error_matrix_bytes=0)
        self.compiled.append(kernel)
        return kernel

    def fingerprint(self) -> tuple:
        return ("lut-streaming", self._lut_digest)


@pytest.fixture
def streaming_lut():
    """Factory: ``streaming_lut(multiplier)`` is a LUT product model whose
    kernels always stream (see :class:`StreamingLUTProduct`)."""
    return StreamingLUTProduct


def _fresh_executor_accuracies(
    trained, dataset, plans, max_eval_images=None, calibration_images=128
) -> list[float]:
    """Accuracies of ``plans``, each scored on its own fresh executor.

    The parity oracle of every path that scores through an evaluation
    service: no service, schedule, worker state or multi-plan batch — one
    ``ApproximateExecutor(model, calibration).predict(images, plan)`` per
    plan, scored with :func:`repro.simulation.metrics.accuracy`.
    """
    images, labels = dataset.test_images, dataset.test_labels
    if max_eval_images is not None:
        images, labels = images[:max_eval_images], labels[:max_eval_images]
    calibration = dataset.train_images[:calibration_images]
    return [
        accuracy(
            ApproximateExecutor(trained.model, calibration).predict(images, plan), labels
        )
        for plan in plans
    ]


@pytest.fixture
def fresh_accuracies():
    """``fresh_accuracies(trained, dataset, plans, max_eval_images=None,
    calibration_images=128)``: the independent per-plan oracle (see
    :func:`_fresh_executor_accuracies`)."""
    return _fresh_executor_accuracies
