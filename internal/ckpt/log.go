package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// The repo's one append-only record file, the intake journal's
// (journal.go): a sequence of artifact frames (frame.go) appended with
// O_APPEND and fsynced, so after a SIGKILL at any byte boundary the file
// is a valid record sequence and at most one torn tail, which openLog
// truncates away.

// frameEnd returns where the frame at the head of data ends by its
// declared length (magic[8] version[1] len[4] payload crc[4]), and false
// when data holds less than that.
func frameEnd(data []byte) (int, bool) {
	const fixed = 8 + 1 + 4 + 4
	if len(data) < fixed {
		return 0, false
	}
	end := fixed + uint64(binary.LittleEndian.Uint32(data[8+1:]))
	return int(end), end <= uint64(len(data))
}

// scanLog decodes records from the head of data until it is exhausted or
// a frame fails to validate, returning the intact records, how many
// bytes they span, and the first failure (nil when all of data parsed).
// Whether that is a repairable torn tail is the caller's judgement.
func scanLog[T any](data []byte, what string, decode func(frame []byte) (T, error)) ([]T, int, error) {
	var recs []T
	off := 0
	for off < len(data) {
		end, ok := frameEnd(data[off:])
		if !ok {
			return recs, off, &FormatError{Reason: fmt.Sprintf("%s %d: truncated header or payload (%d bytes remain)", what, len(recs), len(data)-off)}
		}
		rec, err := decode(data[off : off+end])
		if err != nil {
			return recs, off, fmt.Errorf("%s %d: %w", what, len(recs), err)
		}
		recs = append(recs, rec)
		off += end
	}
	return recs, off, nil
}

// appendLog is an open record file positioned for appending.
type appendLog struct {
	f    *os.File
	path string
	// err latches the first failed write or sync: the bytes a short write
	// left are a torn tail only while nothing follows them, and a later
	// append would make them the mid-file damage the next open refuses.
	err error
}

// openLog opens (creating if absent) the record file at path, returns
// every intact record, and repairs a torn tail: a trailing fragment that
// fails framing or CRC — the signature of a kill mid-append — is
// truncated so the next append starts on a record boundary. A valid
// record after the first bad frame is refused instead: O_APPEND plus
// fsync ordering cannot produce it, and dropping records would be worse.
func openLog[T any](path, what string, decode func(frame []byte) (T, error)) (*appendLog, []T, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	recs, consumed, derr := scanLog(data, what, decode)
	if derr != nil {
		// A frame whose declared length runs past the file has nothing
		// beyond it: a tail by definition.
		if end, ok := frameEnd(data[consumed:]); ok {
			if later, _, _ := scanLog(data[consumed+end:], what, decode); len(later) > 0 {
				return nil, nil, fmt.Errorf("ckpt: %s: %s %d is corrupt but later records are intact — mid-file damage, not a torn append; refusing to repair: %w", path, what, len(recs), derr)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	if consumed < len(data) {
		if err = f.Truncate(int64(consumed)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("ckpt: truncating torn tail of %s at byte %d: %w", path, consumed, err)
		}
	}
	return &appendLog{f: f, path: path}, recs, nil
}

// append writes frames — whole framed records — with one write and one
// fsync, so records the caller believes in survive any later crash. A
// short or failed write leaves a torn tail the next open repairs, and
// fails every later append on this handle.
func (l *appendLog) append(frames []byte) error {
	if l.err != nil {
		return l.err
	}
	var w io.Writer = l.f
	if TestWriteWrap != nil {
		w = TestWriteWrap(w)
	}
	_, err := w.Write(frames)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("ckpt: appending to %s: %w", l.path, err)
	}
	return l.err
}

// Close closes the file; closing twice is harmless.
func (l *appendLog) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
