"""A config mapping that records which keys a scenario runner reads.

``recording(runner, reads)`` wraps a registry runner so that it runs on a
copy of its config whose every ``[]`` and ``get`` adds the dotted key path
(``"run.dt"``) to the set ``reads``. The run itself, and the config echoed
into ``report.json``, are unchanged.
"""


class RecordingConfig(dict):
    def __init__(self, cfg, reads, prefix=""):
        super().__init__(
            (key, RecordingConfig(value, reads, f"{prefix}{key}.")
             if isinstance(value, dict) else value)
            for key, value in cfg.items())
        self._reads = reads
        self._prefix = prefix

    def __getitem__(self, key):
        self._reads.add(self._prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._reads.add(self._prefix + key)
        return super().get(key, default)


def recording(runner, reads):
    def run(cfg):
        return runner(RecordingConfig(cfg, reads))
    return run


def set_keys(cfg, prefix=""):
    """Dotted paths of every leaf a config sets."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from set_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key
