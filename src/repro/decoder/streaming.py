"""Streaming (online) decoding with decoder-driven endpointing.

The paper's use cases — dictation on a phone, command and control —
are streaming: audio arrives frame by frame and the device must emit
words with bounded latency, then detect the end of the utterance and
gate the units off.  This module adds that mode on top of the staged
decoder:

* :meth:`StreamingRecognizer.feed` consumes one feature frame and
  returns a :class:`StreamingEvent` carrying the current partial
  hypothesis (refreshed every ``partial_interval`` frames) and an
  endpoint flag;
* endpointing is decoder-driven, the standard technique: when the
  best-scoring active HMM state has belonged to the silence model for
  ``endpoint_silence_frames`` consecutive frames, the utterance is
  declared finished — no separate VAD needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.logadd import LOG_DEAD
from repro.decoder.beam import check_count
from repro.decoder.best_path import BestPath, find_best_path
from repro.decoder.recognizer import Recognizer

__all__ = ["StreamingEvent", "StreamingRecognizer"]


@dataclass(frozen=True)
class StreamingEvent:
    """What one fed frame produced."""

    frame: int
    partial: tuple[str, ...] | None  # refreshed hypothesis, when computed
    endpoint: bool  # True when the utterance just ended


class StreamingRecognizer:
    """Frame-at-a-time wrapper over a :class:`Recognizer`.

    Parameters
    ----------
    recognizer:
        A configured recognizer (any mode, either lexicon network).
        Its network must include the silence word — endpointing
        tracks it.
    partial_interval:
        Emit a partial hypothesis every this many frames (0 disables).
    endpoint_silence_frames:
        Consecutive frames the best state must sit in the silence
        model before an endpoint fires (30 frames = 300 ms).
    on_partial:
        Optional callback invoked as ``on_partial(words, frame)``
        whenever a partial hypothesis is computed — the push-style hook
        the serving front door's sessions attach to, so callers that
        drive :meth:`feed` from a queue need not inspect every event.
    on_endpoint:
        Optional callback invoked as ``on_endpoint(frame)`` the moment
        the endpointer fires.
    """

    def __init__(
        self,
        recognizer: Recognizer,
        partial_interval: int = 20,
        endpoint_silence_frames: int = 30,
        on_partial: Callable[[tuple[str, ...], int], None] | None = None,
        on_endpoint: Callable[[int], None] | None = None,
    ) -> None:
        if not recognizer.network.has_silence:
            raise ValueError("endpointing needs the silence word in the network")
        check_count("partial_interval", partial_interval, 0)
        check_count("endpoint_silence_frames", endpoint_silence_frames, 1)
        self.recognizer = recognizer
        self.partial_interval = partial_interval
        self.endpoint_silence_frames = endpoint_silence_frames
        self.on_partial = on_partial
        self.on_endpoint = on_endpoint
        self._silence = recognizer.network.is_silence_state
        self._silence_run = 0
        self._frames = 0
        self._saw_speech = False
        self._ended = False
        self.recognizer.word_stage.reset()

    # ------------------------------------------------------------------
    @property
    def frames_fed(self) -> int:
        return self._frames

    @property
    def ended(self) -> bool:
        return self._ended

    def feed(self, frame: np.ndarray) -> StreamingEvent:
        """Consume one feature frame."""
        if self._ended:
            raise RuntimeError("utterance already endpointed; call reset()")
        if not np.isfinite(frame).all():
            raise ValueError(
                f"frame {self._frames}: features must be finite (found NaN or inf)"
            )
        self.recognizer.word_stage.process_frame(frame)
        self._frames += 1
        self._update_endpoint_state()
        partial = None
        if (
            self.partial_interval
            and self._frames % self.partial_interval == 0
            and not self._ended
        ):
            best = self._current_best()
            partial = best.words if best else ()
            if self.on_partial is not None:
                self.on_partial(partial, self._frames - 1)
        if self._ended and self.on_endpoint is not None:
            self.on_endpoint(self._frames - 1)
        return StreamingEvent(
            frame=self._frames - 1, partial=partial, endpoint=self._ended
        )

    def _update_endpoint_state(self) -> None:
        delta = self.recognizer.word_stage.delta
        best_state = int(np.argmax(delta))
        if delta[best_state] <= LOG_DEAD:
            return  # nothing alive yet
        in_silence = bool(self._silence[best_state])
        if in_silence and self._saw_speech:
            self._silence_run += 1
            if self._silence_run >= self.endpoint_silence_frames:
                self._ended = True
        else:
            self._silence_run = 0
            if not in_silence:
                self._saw_speech = True

    def _current_best(self) -> BestPath | None:
        stage = self.recognizer.word_stage
        return find_best_path(
            stage.lattice,
            self.recognizer.lm,
            self.recognizer.network,
            final_frame=self._frames - 1,
            lm_scale=self.recognizer.config.lm_scale,
        )

    def finalize(self) -> BestPath | None:
        """The finished hypothesis (callable whether or not endpointed)."""
        if self._frames == 0:
            return None
        return self._current_best()

    def reset(self) -> None:
        """Prepare for the next utterance."""
        self.recognizer.word_stage.reset()
        self._silence_run = 0
        self._frames = 0
        self._saw_speech = False
        self._ended = False
