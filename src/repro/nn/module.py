"""Base class for trainable modules (a tiny analogue of ``torch.nn.Module``).

A :class:`Module` owns named :class:`~repro.nn.tensor.Tensor` parameters and
possibly child modules.  It exposes parameter iteration (for optimizers),
state-dict save/load (for transfer learning between the coarse and fine RF
simulation environments, Sec. 3 of the paper), and gradient zeroing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Container for parameters and sub-modules with recursive traversal."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for modules kept in lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def parameters(self) -> List[Tensor]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return int(sum(param.size for param in self.parameters()))

    def parameter_shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Dotted parameter name -> shape (checkpoint compatibility checks)."""
        return {name: tuple(param.data.shape) for name, param in self.named_parameters()}

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State-dict interface (used by transfer learning)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        if strict:
            missing = set(own) - set(state)
            unexpected = set(state) - set(own)
            if missing or unexpected:
                raise KeyError(
                    f"state_dict mismatch: missing={sorted(missing)}, "
                    f"unexpected={sorted(unexpected)}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
