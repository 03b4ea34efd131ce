"""A 2-D robot simulator producing Gaussian pose estimates.

The robot integrates noisy velocity commands (dead reckoning); its pose
uncertainty grows between the sparse position fixes (think occasional GPS)
that shrink it again — reproducing the growing/shrinking uncertainty
ellipses of the paper's Fig. 1.  Each step yields a
:class:`PoseEstimate`: the *true* (hidden) position plus the Kalman belief
to be used as a probabilistic-range-query object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.gaussian.distribution import Gaussian
from repro.robotics.kalman import KalmanFilter

__all__ = ["PoseEstimate", "RobotSimulator"]


@dataclass(frozen=True)
class PoseEstimate:
    """One simulation step: ground truth and the filter's belief."""

    step: int
    true_position: np.ndarray
    belief: Gaussian
    had_fix: bool

    @property
    def error(self) -> float:
        """Distance between the belief mean and the true position."""
        return float(np.linalg.norm(self.belief.mean - self.true_position))


class RobotSimulator:
    """Simulates a velocity-driven robot with dead reckoning + sparse fixes.

    Parameters
    ----------
    start:
        Initial true position (the filter starts there with small
        uncertainty).
    odometry_noise:
        Standard deviation of the per-step velocity integration error.
    fix_noise:
        Standard deviation of a position fix measurement.
    fix_interval:
        A fix arrives every this many steps (0 disables fixes entirely —
        pure dead reckoning with unbounded uncertainty growth).
    seed:
        Drives command noise, odometry noise and fix noise.
    """

    def __init__(
        self,
        start=(0.0, 0.0),
        *,
        odometry_noise: float = 0.8,
        fix_noise: float = 3.0,
        fix_interval: int = 25,
        seed: int = 0,
    ):
        if odometry_noise <= 0 or fix_noise <= 0:
            raise ReproError("noise standard deviations must be > 0")
        if fix_interval < 0:
            raise ReproError(f"fix_interval must be >= 0, got {fix_interval}")
        self._rng = np.random.default_rng(seed)
        self._true = np.asarray(start, dtype=float)
        if self._true.shape != (2,):
            raise ReproError(f"start must be a 2-vector, got {self._true.shape}")
        self.odometry_noise = float(odometry_noise)
        self.fix_noise = float(fix_noise)
        self.fix_interval = int(fix_interval)
        self._step = 0

        identity = np.eye(2)
        self._filter = KalmanFilter(
            transition=identity,
            process_noise=odometry_noise**2 * identity,
            observation=identity,
            observation_noise=fix_noise**2 * identity,
            control=identity,
        )
        self._filter.initialize(self._true, 0.01 * identity)

    def advance(self, commanded_velocity) -> PoseEstimate:
        """Execute one motion step and return the updated estimate."""
        v = np.asarray(commanded_velocity, dtype=float)
        if v.shape != (2,):
            raise ReproError(f"velocity must be a 2-vector, got {v.shape}")
        self._step += 1
        # True motion: commanded velocity corrupted by odometry error.
        self._true = self._true + v + self._rng.normal(0.0, self.odometry_noise, 2)
        self._filter.predict(v)
        had_fix = bool(
            self.fix_interval and self._step % self.fix_interval == 0
        )
        if had_fix:
            measurement = self._true + self._rng.normal(0.0, self.fix_noise, 2)
            self._filter.update(measurement)
        return PoseEstimate(
            step=self._step,
            true_position=self._true.copy(),
            belief=self._filter.belief(),
            had_fix=had_fix,
        )

    def run(self, velocities) -> list[PoseEstimate]:
        """Advance through a whole command sequence."""
        return [self.advance(v) for v in velocities]
