"""Domain data model: corpora, profile sets, trials, and file IO.

A profile set is a Corpus of one model with one row per speaker, made by
profile_corpus: the speaker's unit-norm profile, as an enrollment row of
utterance id ``profile:<speaker>``. So it is written and read as a corpus.

File formats:
  * embeddings / profiles: UTF-8 JSONL, one object per line with keys
    speaker_id, utterance_id, model_id, split ("enroll"|"runtime"),
    vector (list of floats, 9 significant digits on disk). load_embeddings reads
    a file or pipe once, BLOCK_ROWS lines at a time (save_embeddings' layout in
    bulk, others line by line); both hold one block's text at a time, so the
    memory they need beyond the corpus does not grow with its size.
  * trials: TSV ``enroll_speaker_id \\t test_utterance_id \\t target|imposter``.
  * scores: trial columns plus a score column (9 significant digits); a
    TrialSet reads and writes both as columns.
"""

from __future__ import annotations

import json
import re
from copy import copy
from dataclasses import dataclass
from functools import partial, reduce
from itertools import count, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnrollment,
    ModelMismatch,
    ParseError,
    SidAlignError,
    UnknownLabel,
    ZeroVector,
)
from .numerics import length_normalize

SPLITS = ("enroll", "runtime")
LABELS = ("target", "imposter")

# 9 significant digits round-trips any float32 payload exactly.
FLOAT_FMT = "%.9g"

# The rows that each stage holds at a time, so that the memory a stage needs
# beyond its input and result does not grow with the corpus or trial list:
# the lines save_embeddings writes and _blocks reads (for load_embeddings and
# every other artifact), the rows Corpus checks for finiteness, the enrollment
# rows of one build_all_profiles step (whole speakers, so about as many), the
# rows of one synth.generate step (whole speakers), the trials whose rows
# metrics.score_trials gathers for one scorer call, and at most the rows of one
# mlp.forward call in align.map_profiles and align.map_runtime. A file whose
# lines end in a lone "\r" has no "\n" to end a block: it is one.
BLOCK_ROWS = 512

# A record's fields in file order, the three ids first: the JSONL keys.
FIELDS = ("speaker_id", "utterance_id", "model_id", "split", "vector")

# The line save_embeddings writes: one %s per field, filled with the ids as
# json.dumps writes them, the quoted split and the bracketed vector.
# load_embeddings reads files made of such lines in bulk.
RECORD_LAYOUT = "{" + ", ".join(f'"{key}": %s' for key in FIELDS) + "}"
# A JSON string that decodes to its own text (no escape, no control
# character), each of the splits, and the vector text that json.loads
# checks, then the whitespace that str.strip() takes off a line's end. No
# part matches a newline, and the literal start lets a search skip ahead.
_RECORD_LINE = re.compile(re.escape(RECORD_LAYOUT) % (
    *[r'"([^"\\\x00-\x1f]*)"'] * 3, '"(%s)"' % "|".join(SPLITS), r"\[(.*)\]")
    + r"[^\S\n]*$", re.M)


@dataclass
class EmbeddingRecord:
    """One row of a corpus, as a plain value; the corpus checks it."""

    speaker_id: str
    utterance_id: str
    model_id: str
    split: str
    vector: np.ndarray


def _vector_matrix(vectors, utterances) -> np.ndarray:
    """The (n, d >= 1) float64 matrix of n >= 1 vectors, or an error naming the
    first utterance whose vector is not 1-D, numeric and nonempty or not of row
    0's dimension."""
    try:
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim == 2 and matrix.shape[1]:
            return matrix
    except (ValueError, TypeError, OverflowError):
        pass
    # Nonempty rows of one 1-D shape would have formed a matrix: one is bad.
    for i, vector in enumerate(vectors):
        try:
            shape = np.asarray(vector, dtype=np.float64).shape
        except (ValueError, TypeError, OverflowError):
            shape = ()
        if len(shape) != 1 or not shape[0]:
            raise ParseError(f"utterance {utterances[i]!r} has no 1-D numeric vector of "
                             f"one or more entries", row=i)
        if shape != np.shape(vectors[0]):
            raise DimensionMismatch(f"utterance {utterances[i]!r} has dimension {shape[0]}, "
                                    f"the corpus uses {len(vectors[0])}", row=i)


class Corpus:
    """The embeddings of one model as parallel columns: row i is utterance
    ``utterances[i]`` of speaker ``speakers[i]``, of the enrollment split if
    ``enroll[i]`` (else runtime), with vector ``vectors[i]`` of an (n, d)
    float64 matrix. The columns are per-row lists in FIELDS order (``vectors``
    may be an (n, d) array); they are checked once, on construction, and each
    failed check names the first bad utterance; nothing changes them after.
    """

    def __init__(self, speakers, utterances, model_ids, splits, vectors):
        n = len(utterances)
        for name, column in (("speaker", speakers), ("utterance", utterances),
                             ("model", model_ids)):
            try:
                "".join(column)  # fails on the first id that is not a str
            except TypeError:
                i = next(i for i, v in enumerate(column) if not isinstance(v, str))
                raise ParseError(f"ids must be strings: row {i} has {name} id "
                                 f"{column[i]!r}", row=i) from None
        self.speakers: list[str] = speakers
        self.utterances: list[str] = utterances
        self._profiles: Corpus | None = None  # set by build_all_profiles
        if splits.count("enroll") + splits.count("runtime") != n:
            i = next(i for i, split in enumerate(splits) if split not in SPLITS)
            raise ParseError(f"utterance {utterances[i]!r} has unknown split "
                             f"{splits[i]!r}", row=i)
        self.enroll = np.fromiter(map("enroll".__eq__, splits), bool, n)
        self.vectors = _vector_matrix(vectors, utterances) if n else np.zeros((0, 0))
        for start in range(0, n, BLOCK_ROWS):
            finite = np.isfinite(self.vectors[start:start + BLOCK_ROWS]).all(axis=1)
            if not finite.all():
                i = start + int(np.argmin(finite))
                raise ParseError(f"non-finite vector in utterance {utterances[i]!r}", row=i)
        self.model_id: str | None = model_ids[0] if n else None
        self.dim: int | None = self.vectors.shape[1] if n else None
        if model_ids.count(self.model_id) != n:
            i = next(i for i, m in enumerate(model_ids) if m != self.model_id)
            raise ModelMismatch(f"utterance {utterances[i]!r} is of model {model_ids[i]!r}, "
                                f"the corpus holds model {self.model_id!r}", row=i)
        if len(set(utterances)) != n:  # then look for a repeated (utterance, split)
            seen = {}
            for i, key in enumerate(zip(utterances, splits)):
                if seen.setdefault(key, i) != i:
                    raise ParseError(f"duplicate record {key}", row=i)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        """The rows as records, built on each call. It and ``records`` stay only
        for perfbench/, which reads profiles and rows as records; both go when it
        reads the columns (ROADMAP item 1)."""
        splits = ("enroll" if enroll else "runtime" for enroll in self.enroll.tolist())
        return map(EmbeddingRecord, self.speakers, self.utterances,
                   repeat(self.model_id), splits, self.vectors)

    @property
    def records(self) -> list[EmbeddingRecord]:
        """The rows as records, built on each access."""
        return list(self)

    @property
    def profiles(self) -> Corpus:
        """The profile set of the enrolled speakers, built on first use."""
        return build_all_profiles(self, self.model_id)

    def rows(self, split: str) -> list[int]:
        """The row numbers of one split, in order."""
        mask = {"enroll": self.enroll, "runtime": ~self.enroll}[split]
        return np.flatnonzero(mask).tolist()

    def speaker_ids(self) -> list[str]:
        """Speakers in first-row order."""
        return list(dict.fromkeys(self.speakers))


@dataclass
class Trial:
    enroll_speaker_id: str
    test_utterance_id: str
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise UnknownLabel(f"unknown trial label {self.label!r}")


def rows_of(ids, keys) -> np.ndarray:
    """Each id's position among the distinct ``keys`` (a list, or a dict's
    keys) as ``np.intp``, and -1 for an id that is not among them."""
    position = dict(zip(keys, count()))
    return np.fromiter(map(position.get, ids, repeat(-1)), np.intp, len(ids))


def _index_column(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids in first-seen order, and each id's position among them."""
    keys = list(dict.fromkeys(ids))
    return keys, rows_of(ids, keys)


def _take(values, rows: np.ndarray) -> list:
    """``values[i]`` for each ``i`` in ``rows``, as a list."""
    return np.fromiter(values, object, len(values))[rows].tolist()


class TrialSet:
    """A trial list and, once scored, its scores as one float64 array.

    The ids are resolved once, on construction, into index columns:
    ``enroll_keys`` holds the distinct enroll speaker ids in first-trial
    order and ``enroll_rows`` the position of each trial's speaker among them
    (``np.intp``); ``test_keys``/``test_rows`` do the same for the test
    utterances, and ``target`` is the bool mask of target trials. A scored
    copy (``with_scores``) shares these columns. ``trials``, the list as
    Trial objects, is built on first access.
    """

    def __init__(self, trials: list[Trial], scores=None):
        self._set_columns([t.enroll_speaker_id for t in trials],
                          [t.test_utterance_id for t in trials],
                          [t.label for t in trials], scores)
        self._trials = trials

    @classmethod
    def of_columns(cls, enroll_ids: list[str], test_ids: list[str], labels: list[str],
                   scores=None) -> TrialSet:
        """A trial list of per-trial id and label columns, no Trial built."""
        trialset = cls.__new__(cls)
        trialset._set_columns(enroll_ids, test_ids, labels, scores)
        trialset._trials = None
        return trialset

    def _set_columns(self, enroll_ids, test_ids, labels, scores):
        if not set(labels).issubset(LABELS):
            raise UnknownLabel(f"unknown trial label "
                               f"{next(x for x in labels if x not in LABELS)!r}")
        self.enroll_keys, self.enroll_rows = _index_column(enroll_ids)
        self.test_keys, self.test_rows = _index_column(test_ids)
        self.target = np.fromiter(map("target".__eq__, labels), bool, len(labels))
        self.scores = None if scores is None else self._score_column(scores)

    def __len__(self) -> int:
        return len(self.target)

    @property
    def trials(self) -> list[Trial]:
        if self._trials is None:
            self._trials = list(map(Trial, *self._columns()))
        return self._trials

    def _columns(self) -> tuple[list[str], list[str], list[str]]:
        """The enroll id, test id and label of every trial, as three lists."""
        return (_take(self.enroll_keys, self.enroll_rows),
                _take(self.test_keys, self.test_rows),
                _take(("imposter", "target"), self.target.astype(np.intp)))

    def _score_column(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(self),):
            raise DimensionMismatch("scores and trials must have equal length")
        return scores

    def with_scores(self, scores) -> TrialSet:
        """This trial list with one score per trial; the columns (and the
        Trial list, if built) are shared."""
        scored = copy(self)
        scored.scores = self._score_column(scores)
        return scored

    def labels01(self) -> np.ndarray:
        return self.target.astype(int)


def profile_corpus(speakers: list[str], model_id: str | None, vectors) -> Corpus:
    """The profile set of model_id whose row i is the profile ``vectors[i]`` of
    speaker ``speakers[i]``: an enrollment row of utterance ``profile:<speaker>``."""
    return Corpus(speakers, [f"profile:{speaker}" for speaker in speakers],
                  [model_id] * len(speakers), ["enroll"] * len(speakers), vectors)


def build_all_profiles(corpus: Corpus, model_id: str) -> Corpus:
    """The profile set of the enrolled speakers, in first-row order: normalize
    each enrollment embedding, average per speaker, normalize again. Built once
    per corpus; later calls return the same set. The speakers go in blocks of
    about BLOCK_ROWS enrollment rows, none split across two, and only the
    profiles are kept. A zero or overflowing row is refused (naming it) before
    a zero mean (naming its speaker), as when all rows are normalized first."""
    if model_id != corpus.model_id:
        raise ModelMismatch(f"profiles of model {model_id!r} asked of a corpus "
                            f"of model {corpus.model_id!r}")
    if corpus._profiles is not None:
        return corpus._profiles
    rows = np.flatnonzero(corpus.enroll)
    if not len(rows):
        raise EmptyEnrollment("no enrollment records to build profiles from")
    speakers, owner = _index_column([corpus.speakers[i] for i in rows.tolist()])
    # Each speaker's rows in row order, one speaker after another.
    rows = rows[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner)
    ends = np.cumsum(counts)
    # A block ends with the speaker whose rows reach the next multiple of BLOCK_ROWS.
    cuts = np.searchsorted(ends, np.arange(BLOCK_ROWS, ends[-1], BLOCK_ROWS)) + 1
    edges = np.unique(np.concatenate(([0], cuts, [len(counts)]))).tolist()
    profiles = np.empty((len(speakers), corpus.dim))
    zero_mean = None  # the first block's ZeroVector of a mean, raised after every row
    for lo, hi in zip(edges, edges[1:]):
        first = ends[lo] - counts[lo]
        block = rows[first:ends[hi - 1]]
        try:
            units = length_normalize(corpus.vectors[block])
        except ZeroVector as exc:
            utterance = corpus.utterances[block[exc.row]]
            raise ZeroVector(f"utterance {utterance!r}: {exc}") from exc
        starts, block_counts = ends[lo:hi] - counts[lo:hi] - first, counts[lo:hi]
        means = np.empty((hi - lo, corpus.dim))
        # The speakers with k rows at once: mean(axis=1) over their (n_k, k, d)
        # block makes the same additions in the same order as mean(axis=0) over
        # each speaker's rows alone, so the bits do not depend on the other
        # speakers, on how the rows interleave or on the blocks.
        for k in np.unique(block_counts).tolist():
            group = np.flatnonzero(block_counts == k)
            means[group] = units[starts[group, None] + np.arange(k)].mean(axis=1)
        try:
            profiles[lo:hi] = length_normalize(means)
        except ZeroVector as exc:
            zero_mean = zero_mean or ZeroVector(
                f"the mean enrollment vector of speaker {speakers[lo + exc.row]!r}: {exc}")
    if zero_mean is not None:
        raise zero_mean
    corpus._profiles = profile_corpus(speakers, model_id, profiles)
    return corpus._profiles


# ---------------------------------------------------------------------------
# File IO


def save_embeddings(corpus: Corpus, path) -> None:
    """One RECORD_LAYOUT line per row, vector entries as FLOAT_FMT (json.dumps
    would re-expand the rounded floats), written BLOCK_ROWS rows at a time."""
    line = RECORD_LAYOUT % ("%s", "%s", "%s", '"%s"',
                            "[" + ",".join([FLOAT_FMT] * (corpus.dim or 0)) + "]") + "\n"
    model = encode_basestring_ascii(corpus.model_id or "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(corpus), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            fh.write("".join([
                line % (encode_basestring_ascii(speaker), encode_basestring_ascii(utt),
                        model, "enroll" if enroll else "runtime", *vector)
                for speaker, utt, enroll, vector in zip(
                    corpus.speakers[block], corpus.utterances[block],
                    corpus.enroll[block].tolist(), corpus.vectors[block].tolist())]))


def _write_text(path, text: str) -> None:
    """Write a formatted text whole, as UTF-8 with "\\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        return "".join(text for _, text, _ in _blocks(fh, path))


def _load_json(path, what: str, convert=None, **json_options):
    """The JSON value of a UTF-8 file, passed through convert if given. Text that
    does not parse, or a value convert refuses, is ``FILE: malformed <what>: ...``."""
    text = _read_text(path)
    try:
        obj = json.loads(text, **json_options)
        return obj if convert is None else convert(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed {what}: {exc!r}") from exc


def _bulk_columns(text: str):
    """The columns of a text whose nonblank lines all have RECORD_LAYOUT, ids
    without escapes and vectors of one length that json.loads reads (with
    _line_columns' integers as floats) in one call; None for any other text."""
    # The text split at each match: the text before it, then its fields. A match
    # ends a line, so every nonblank line matched if only whitespace lies between.
    parts = _RECORD_LINE.split(text)
    stride = len(FIELDS) + 1
    between = "".join(parts[::stride])
    if len(parts) == 1 or (between and not between.isspace()):
        return None
    *ids, vectors = (parts[i::stride] for i in range(1, stride))
    # Only number bytes and commas: no bracket, so each line is one row, and
    # no letter, so true, null, NaN and strings are left to the line reader.
    if ",".join(vectors).encode().translate(None, b"0123456789-+.eE,"):
        return None
    try:  # a grammar error, or rows of unequal length
        matrix = np.array(json.loads("[[" + "],[".join(vectors) + "]]", parse_int=float),
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return (*ids, matrix)


def _blocks(fh, path):
    """(first line, text, line count) of each BLOCK_ROWS-line block of a binary stream as
    UTF-8, newlines translated and counted as in text mode; a bad byte is named FILE:LINE,
    its line counted as in text mode too: after each "\r\n", lone "\r" and "\n"."""
    line, offset = 1, 0
    while raw := list(islice(fh, BLOCK_ROWS)):
        block = b"".join(raw)
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = block[:exc.start]  # a block starts after a "\n", so no "\r\n" is cut
            lineno = line + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            at, last = offset + exc.start, offset + exc.end - 1
            raise ParseError(f"{path}:{lineno}: '{exc.encoding}' codec can't decode " + (
                f"byte 0x{block[exc.start]:02x} in position {at}" if at == last
                else f"bytes in position {at}-{last}") + f": {exc.reason}") from exc
        lines = len(raw)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = text.count("\n") + (text[-1:] != "\n")
        offset += len(block)
        del raw, block  # only the text is alive while the block is parsed
        yield line, text, lines
        line += lines


def _line_columns(path, first: int, lines):
    """The columns of the nonblank ``lines``, numbered from ``first``, one json.loads
    each; an error names the line. Integers parse as floats, as in _bulk_columns."""
    rows = []
    for lineno, line in enumerate(map(str.strip, lines), start=first):
        if not line:
            continue
        try:
            obj = json.loads(line, parse_int=float)
            row = [obj[key] for key in FIELDS]
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not (isinstance(row[4], list) and all(type(x) is float for x in row[4])):
            raise ParseError(f"{path}:{lineno}: the vector must be a list of JSON numbers")
        rows.append(row)
    return list(zip(*rows)) or [()] * len(FIELDS)


def load_embeddings(path) -> Corpus:
    """A corpus of a JSONL file or pipe, read once by _blocks: _bulk_columns
    parses a block in save_embeddings' layout, _line_columns any other, to the
    same values and errors, which name the file and line. The vectors go into
    one matrix, sized for a file by its "{" bytes and size (a record holds a "{"
    and two bytes or more per number). A pipe's starts at one block and doubles
    when full, copying the rows read so far: each row about once more in all."""
    ids, blank = ([], [], [], []), []  # blank: the numbers of blank lines
    matrix = None  # from the first block that does not fit it on, a list of rows
    with open(path, "rb", buffering=1 << 16) as fh:
        braces, size = BLOCK_ROWS, float("inf")  # a pipe cannot be counted
        if fh.seekable():
            chunks = iter(partial(fh.read, 1 << 16), b"")
            braces = sum(np.count_nonzero(np.frombuffer(c, "u1") == ord("{")) for c in chunks)
            size = fh.tell()
            fh.seek(0)
        blocks = _blocks(fh, path)
        for first, text, lines in blocks:
            columns = _bulk_columns(text)
            if columns is None or len(columns[0]) < lines:  # refused, or blank lines
                split = text.split("\n")[:lines]
                blank += [first + i for i, line in enumerate(split) if not line.strip()]
                try:
                    columns = columns or _line_columns(path, first, split)
                except ParseError:
                    for _ in blocks:  # a later byte that is not UTF-8 is named
                        pass          # first, as when the file is decoded whole
                    raise
            *block_ids, vectors = columns
            n, k = len(ids[0]), len(vectors)
            if not k:
                continue
            for column, values in zip(ids, block_ids):
                column.extend(values)
            if type(matrix) is not list:
                try:
                    vectors = np.asarray(vectors, dtype=np.float64)
                    if matrix is None:
                        d = vectors.shape[1]
                        matrix = np.empty((min(braces, size // (2 * max(d, 1)) + 1), d))
                    elif n + k > len(matrix):  # a pipe's matrix is full: double it
                        matrix = np.concatenate((matrix, np.empty_like(matrix)))
                    matrix[n:n + k] = vectors.reshape(k, matrix.shape[1])
                    continue
                except ValueError:  # rows of unequal length, or another width
                    matrix = [] if matrix is None else list(matrix[:n])
            matrix.extend(vectors)
    try:
        return Corpus(*ids, [] if matrix is None else matrix[:len(ids[0])])
    except SidAlignError as exc:
        # the row's line: row + 1, plus one for each blank line up to that line
        lineno = reduce(lambda at, line: at + (line <= at), blank, exc.row + 1)
        raise type(exc)(f"{path}:{lineno}: {exc}") from exc


def load_profiles(path) -> Corpus:
    """A file's profile set, re-normalized (9-digit serialization perturbs the unit
    norm); a repeated speaker or a zero vector names the file and the speaker."""
    corpus = load_embeddings(path)
    speakers, rows = _index_column(corpus.speakers)
    if len(speakers) < len(corpus):  # row i repeats a speaker where rows[i] < i
        speaker = corpus.speakers[int(np.argmax(rows < np.arange(len(rows))))]
        raise ParseError(f"{path}: speaker {speaker!r} has more than one profile record")
    try:
        vectors = length_normalize(corpus.vectors)
    except ZeroVector as exc:
        raise ZeroVector(f"{path}: speaker {speakers[exc.row]!r}: {exc}") from exc
    return profile_corpus(speakers, corpus.model_id, vectors)


def load_trials(path) -> TrialSet:
    """A trial or scores file, parsed as columns: three tab-separated fields
    per nonblank line, or four with a score that float() reads on every line.
    An error names the file and the first bad line."""
    lines = _read_text(path).split("\n")
    rows = list(filter(None, lines))
    if not rows:
        return TrialSet.of_columns([], [], [])
    tabs = set(map(str.count, rows, repeat("\t")))
    if len(tabs) == 1 and tabs <= {2, 3}:
        width = tabs.pop() + 1
        fields = "\t".join(rows).split("\t")
        try:
            scores = (np.fromiter(map(float, fields[3::width]), np.float64, len(rows))
                      if width == 4 else None)
            return TrialSet.of_columns(fields[0::width], fields[1::width],
                                       fields[2::width], scores)
        except (ValueError, UnknownLabel):  # a bad score or label: name its line
            pass
    raise _trial_file_error(path, lines)


def _trial_file_error(path, lines) -> SidAlignError:
    """The error of the first line, in file order, that load_trials refuses:
    a wrong column count, then an unknown label, then a bad score; a file
    whose lines are each fine mixes scored and unscored lines."""
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            return ParseError(f"{path}:{lineno}: expected 3 or 4 columns")
        if parts[2] not in LABELS:
            return UnknownLabel(f"{path}:{lineno}: unknown label {parts[2]!r}")
        if len(parts) == 4:
            try:
                float(parts[3])
            except ValueError:
                return ParseError(f"{path}:{lineno}: bad score {parts[3]!r}")
    return ParseError(f"{path}: mixed scored and unscored lines")


def _write_trials(path, columns, line: str) -> None:
    """``line`` once per trial, filled with the trial's value of each column,
    all formatted by one ``%``."""
    n, k = len(columns[0]), len(columns)
    fields = [None] * (n * k)
    for i, column in enumerate(columns):
        fields[i::k] = column
    _write_text(path, (line * n) % tuple(fields))


def save_trials(trialset: TrialSet, path) -> None:
    _write_trials(path, trialset._columns(), "%s\t%s\t%s\n")


def save_scores(trialset: TrialSet, path) -> None:
    if trialset.scores is None:
        raise ParseError("trial set has no scores to save")
    _write_trials(path, (*trialset._columns(), trialset.scores.tolist()),
                  "%s\t%s\t%s\t" + FLOAT_FMT + "\n")
