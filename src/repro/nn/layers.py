"""Neural-network layers with forward and backward passes (NHWC layout)."""

from __future__ import annotations

import numpy as np

from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.initializers import he_normal, zeros


class Layer:
    """Base class of all layers.

    A layer transforms one or more input arrays into a single output array.
    Trainable layers expose their parameters and accumulated gradients via
    :meth:`params` and :meth:`grads` (dictionaries keyed by parameter name),
    which is what the optimizers consume.
    """

    #: Set by the graph when the layer is registered; used in reports.
    name: str = ""

    #: Per-batch transient attributes — forward/backward caches and gradient
    #: accumulators — that are rebuilt by the next forward/backward pass.
    #: They are nulled when a layer is pickled: a trained model shipped to
    #: sweep workers carries its parameters, not the im2col columns and
    #: activation masks of the last training batch (which dwarf the weights).
    _TRANSIENT_STATE = (
        "_cache",
        "_mask",
        "_x",
        "_x_shape",
        "dweight",
        "dbias",
        "dgamma",
        "dbeta",
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._TRANSIENT_STATE:
            if state.get(key) is not None:
                state[key] = None
        return state

    def forward(self, *inputs: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameters of the layer (may be empty)."""
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`params` after a backward pass."""
        return {}

    @property
    def n_inputs(self) -> int:
        """Number of input tensors the layer expects."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class Conv2D(Layer):
    """2-D convolution (supports grouped and depthwise convolution).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.  ``out_channels`` and ``in_channels`` must both be
        divisible by ``groups``.
    kernel_size:
        Square kernel side length.
    stride:
        Spatial stride.
    padding:
        ``"same"`` (output size = ceil(input / stride) for odd kernels),
        ``"valid"`` or an explicit integer amount of symmetric zero padding.
    groups:
        Number of channel groups (``groups == in_channels`` and
        ``out_channels == in_channels`` gives a depthwise convolution).
    use_bias:
        Whether to add a per-filter bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: str | int = "same",
        groups: int = 1,
        use_bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.groups = int(groups)
        self.use_bias = bool(use_bias)
        if padding == "same":
            self.pad = (self.kernel_size - 1) // 2
        elif padding == "valid":
            self.pad = 0
        else:
            self.pad = int(padding)
        cin_per_group = in_channels // groups
        fan_in = self.kernel_size * self.kernel_size * cin_per_group
        self.weight = he_normal(
            (self.kernel_size, self.kernel_size, cin_per_group, out_channels),
            fan_in=fan_in,
            rng=rng,
        )
        self.bias = zeros((out_channels,)) if use_bias else None
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias) if use_bias else None
        self._cache: dict | None = None

    # ------------------------------------------------------------------
    def weight_matrix(self, group: int = 0) -> np.ndarray:
        """Weights of one group reshaped to ``(taps, filters_per_group)``.

        This is the layout consumed by the quantized / approximate executors
        and by the MAC-array simulator: one column per output filter, rows
        ordered ``(kh, kw, cin)`` to match :func:`repro.nn.im2col.im2col`.
        """
        cout_per_group = self.out_channels // self.groups
        w_g = self.weight[..., group * cout_per_group : (group + 1) * cout_per_group]
        return w_g.reshape(-1, cout_per_group)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        batch, height, width, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"{self.name or type(self).__name__}: expected {self.in_channels} "
                f"input channels, got {channels}"
            )
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad)
        cout_per_group = self.out_channels // self.groups
        cin_per_group = self.in_channels // self.groups
        out = np.empty((batch, out_h, out_w, self.out_channels), dtype=x.dtype)
        cache_cols = []
        for g in range(self.groups):
            x_g = x[..., g * cin_per_group : (g + 1) * cin_per_group]
            cols, _, _ = im2col(x_g, self.kernel_size, self.kernel_size, self.stride, self.pad)
            w_mat = self.weight_matrix(g)
            out_g = cols @ w_mat
            if self.use_bias:
                out_g = out_g + self.bias[g * cout_per_group : (g + 1) * cout_per_group]
            out[..., g * cout_per_group : (g + 1) * cout_per_group] = out_g.reshape(
                batch, out_h, out_w, cout_per_group
            )
            cache_cols.append(cols)
        if training:
            self._cache = {"x_shape": x.shape, "cols": cache_cols}
        return out

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape = self._cache["x_shape"]
        batch, height, width, _ = x_shape
        cin_per_group = self.in_channels // self.groups
        cout_per_group = self.out_channels // self.groups
        dx = np.empty(x_shape, dtype=grad.dtype)
        self.dweight = np.zeros_like(self.weight)
        if self.use_bias:
            self.dbias = np.zeros_like(self.bias)
        for g in range(self.groups):
            grad_g = grad[..., g * cout_per_group : (g + 1) * cout_per_group]
            grad_flat = grad_g.reshape(-1, cout_per_group)
            cols = self._cache["cols"][g]
            w_mat = self.weight_matrix(g)
            dw_mat = cols.T @ grad_flat
            self.dweight[..., g * cout_per_group : (g + 1) * cout_per_group] = (
                dw_mat.reshape(
                    self.kernel_size, self.kernel_size, cin_per_group, cout_per_group
                )
            )
            if self.use_bias:
                self.dbias[g * cout_per_group : (g + 1) * cout_per_group] = grad_flat.sum(
                    axis=0
                )
            dcols = grad_flat @ w_mat.T
            dx[..., g * cin_per_group : (g + 1) * cin_per_group] = col2im(
                dcols,
                (batch, height, width, cin_per_group),
                self.kernel_size,
                self.kernel_size,
                self.stride,
                self.pad,
            )
        return (dx,)

    def params(self) -> dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.use_bias:
            out["bias"] = self.bias
        return out

    def grads(self) -> dict[str, np.ndarray]:
        out = {"weight": self.dweight}
        if self.use_bias:
            out["bias"] = self.dbias
        return out


class Dense(Layer):
    """Fully connected layer operating on ``(batch, features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.weight = he_normal(
            (self.in_features, self.out_features), fan_in=self.in_features, rng=rng
        )
        self.bias = zeros((self.out_features,)) if use_bias else None
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias) if use_bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name or 'Dense'}: expected (batch, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        out = x @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.dweight = self._x.T @ grad
        if self.use_bias:
            self.dbias = grad.sum(axis=0)
        return (grad @ self.weight.T,)

    def params(self) -> dict[str, np.ndarray]:
        out = {"weight": self.weight}
        if self.use_bias:
            out["bias"] = self.bias
        return out

    def grads(self) -> dict[str, np.ndarray]:
        out = {"weight": self.dweight}
        if self.use_bias:
            out["bias"] = self.dbias
        return out


class BatchNorm(Layer):
    """Batch normalization over the channel axis of NHWC (or feature axis of 2-D) inputs."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.channels = int(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = np.ones(channels, dtype=np.float64)
        self.beta = np.zeros(channels, dtype=np.float64)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.channels:
            raise ValueError(
                f"{self.name or 'BatchNorm'}: expected {self.channels} channels, "
                f"got {x.shape[-1]}"
            )
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # gamma * ((x - mean) * inv_std) + beta, in place on one owned
        # temporary: the same operations in the same order.
        out = np.subtract(x, mean)
        out *= inv_std
        if training:
            self._cache = {"x_hat": out.copy(), "inv_std": inv_std, "axes": axes, "n": None}
        out *= self.gamma
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        axes = self._cache["axes"]
        n = float(np.prod([grad.shape[axis] for axis in axes]))
        self.dgamma = (grad * x_hat).sum(axis=axes)
        self.dbeta = grad.sum(axis=axes)
        dx_hat = grad * self.gamma
        dx = (
            dx_hat
            - dx_hat.mean(axis=axes)
            - x_hat * (dx_hat * x_hat).sum(axis=axes) / n
        ) * inv_std
        return (dx,)

    def params(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self) -> dict[str, np.ndarray]:
        return {"gamma": self.dgamma, "beta": self.dbeta}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable state (running statistics) for serialization."""
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return (grad * self._mask,)


class _Pool2D(Layer):
    """Shared machinery of non-overlapping max / average pooling."""

    def __init__(self, pool_size: int = 2):
        self.pool_size = int(pool_size)
        self._cache: dict | None = None

    def _windows(self, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"pooling requires spatial dims divisible by {p}, got {(height, width)}"
            )
        return x.reshape(batch, height // p, p, width // p, p, channels)


class MaxPool2D(_Pool2D):
    """Non-overlapping max pooling (stride equals the pool size)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows = self._windows(x)
        out = windows.max(axis=(2, 4))
        if training:
            # Ties are resolved in backward by splitting the gradient evenly
            # among the maximal elements of the window.
            mask = windows == out[:, :, None, :, None, :]
            self._cache = {"mask": mask, "x_shape": x.shape}
        return out

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        mask = self._cache["mask"]
        counts = mask.sum(axis=(2, 4), keepdims=True)
        spread = grad[:, :, None, :, None, :] * mask / counts
        return (spread.reshape(self._cache["x_shape"]),)


class AvgPool2D(_Pool2D):
    """Non-overlapping average pooling."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows = self._windows(x)
        if training:
            self._cache = {"x_shape": x.shape}
        return windows.mean(axis=(2, 4))

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        p = self.pool_size
        batch, out_h, out_w, channels = grad.shape
        spread = np.broadcast_to(
            grad[:, :, None, :, None, :] / (p * p),
            (batch, out_h, p, out_w, p, channels),
        )
        return (spread.reshape(self._cache["x_shape"]),)


class GlobalAvgPool(Layer):
    """Average over the spatial dimensions: ``(N, H, W, C) -> (N, C)``."""

    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        batch, height, width, channels = self._x_shape
        spread = np.broadcast_to(
            grad[:, None, None, :] / (height * width), self._x_shape
        )
        return (spread.copy(),)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        return (grad.reshape(self._x_shape),)


class Add(Layer):
    """Elementwise sum of several inputs (residual connections)."""

    def __init__(self, n_inputs: int = 2):
        self._n = int(n_inputs)

    @property
    def n_inputs(self) -> int:
        return self._n

    def forward(self, *inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if len(inputs) != self._n:
            raise ValueError(f"Add expects {self._n} inputs, got {len(inputs)}")
        out = inputs[0]
        for extra in inputs[1:]:
            out = out + extra
        return out

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(grad for _ in range(self._n))


class Concat(Layer):
    """Channel-axis concatenation of several inputs (Inception / ShuffleNet)."""

    def __init__(self, n_inputs: int):
        self._n = int(n_inputs)
        self._splits: list[int] | None = None

    @property
    def n_inputs(self) -> int:
        return self._n

    def forward(self, *inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if len(inputs) != self._n:
            raise ValueError(f"Concat expects {self._n} inputs, got {len(inputs)}")
        if training:
            self._splits = [x.shape[-1] for x in inputs]
        return np.concatenate(inputs, axis=-1)

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self._splits is None:
            raise RuntimeError("backward called before a training forward pass")
        out = []
        start = 0
        for width in self._splits:
            out.append(grad[..., start : start + width])
            start += width
        return tuple(out)


class ChannelShuffle(Layer):
    """ShuffleNet channel shuffle: interleave channels across groups."""

    def __init__(self, groups: int):
        self.groups = int(groups)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        channels = x.shape[-1]
        if channels % self.groups:
            raise ValueError(
                f"channels ({channels}) not divisible by groups ({self.groups})"
            )
        per_group = channels // self.groups
        shape = x.shape[:-1]
        reshaped = x.reshape(*shape, self.groups, per_group)
        return np.swapaxes(reshaped, -1, -2).reshape(*shape, channels)

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        channels = grad.shape[-1]
        per_group = channels // self.groups
        shape = grad.shape[:-1]
        reshaped = grad.reshape(*shape, per_group, self.groups)
        return (np.swapaxes(reshaped, -1, -2).reshape(*shape, channels),)


class Pad(Layer):
    """Zero-pad the channel axis (parameter-free ResNet "option A" shortcut)."""

    def __init__(self, extra_channels: int):
        self.extra_channels = int(extra_channels)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        pad_spec = [(0, 0)] * (x.ndim - 1) + [(0, self.extra_channels)]
        return np.pad(x, pad_spec, mode="constant")

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        if self.extra_channels == 0:
            return (grad,)
        return (grad[..., : -self.extra_channels],)
