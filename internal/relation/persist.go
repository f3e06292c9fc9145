package relation

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"qsub/internal/geom"
)

// This file adds durability to the relation: a binary snapshot of the
// full tuple set and an append-only insert log, so a subscription daemon
// can restart without losing the database it disseminates. The format is
// deliberately simple — a fixed header, little-endian records, and a
// CRC32 per record so truncated or corrupt tails are detected instead of
// silently loaded.

// snapshotMagic identifies relation snapshot streams.
var snapshotMagic = [8]byte{'Q', 'S', 'U', 'B', 'R', 'E', 'L', '1'}

// logMagic identifies insert-log streams.
var logMagic = [8]byte{'Q', 'S', 'U', 'B', 'L', 'O', 'G', '1'}

// ErrBadSnapshot is returned when a snapshot stream is malformed.
var ErrBadSnapshot = errors.New("relation: malformed snapshot")

// WriteSnapshot serializes the relation's bounds and every tuple. The
// snapshot is consistent: the relation's read lock is held while the
// tuple set is copied.
func (r *Relation) WriteSnapshot(w io.Writer) error {
	tuples := r.All()
	bounds := r.Bounds()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(bounds.MinX))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(bounds.MinY))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(bounds.MaxX))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(bounds.MaxY))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(tuples)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, t := range tuples {
		if err := writeTupleRecord(bw, t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeTuple serializes one tuple body.
func encodeTuple(t Tuple) []byte {
	rec := make([]byte, 28+len(t.Payload))
	binary.LittleEndian.PutUint64(rec[0:], t.ID)
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(t.Pos.X))
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(t.Pos.Y))
	binary.LittleEndian.PutUint32(rec[24:], uint32(len(t.Payload)))
	copy(rec[28:], t.Payload)
	return rec
}

// decodeTuple parses a tuple body produced by encodeTuple.
func decodeTuple(rec []byte) (Tuple, error) {
	if len(rec) < 28 {
		return Tuple{}, fmt.Errorf("%w: tuple body too short", ErrBadSnapshot)
	}
	payloadLen := binary.LittleEndian.Uint32(rec[24:])
	if uint32(len(rec)-28) != payloadLen {
		return Tuple{}, fmt.Errorf("%w: payload length mismatch", ErrBadSnapshot)
	}
	t := Tuple{
		ID: binary.LittleEndian.Uint64(rec[0:]),
		Pos: geom.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
		),
	}
	if payloadLen > 0 {
		t.Payload = append([]byte(nil), rec[28:]...)
	}
	return t, nil
}

// writeTupleRecord emits one length-prefixed, checksummed tuple record.
func writeTupleRecord(w io.Writer, t Tuple) error {
	rec := encodeTuple(t)
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(pre[4:], crc32.ChecksumIEEE(rec))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// readTupleRecord reads one record written by writeTupleRecord.
func readTupleRecord(r io.Reader) (Tuple, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return Tuple{}, err
	}
	n := binary.LittleEndian.Uint32(pre[0:])
	sum := binary.LittleEndian.Uint32(pre[4:])
	if n < 28 || n > 64<<20 {
		return Tuple{}, fmt.Errorf("%w: record size %d", ErrBadSnapshot, n)
	}
	rec := make([]byte, n)
	if _, err := io.ReadFull(r, rec); err != nil {
		return Tuple{}, err
	}
	if crc32.ChecksumIEEE(rec) != sum {
		return Tuple{}, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return decodeTuple(rec)
}

// ReadSnapshot restores a relation from a snapshot stream, using an
// nx × ny grid index.
func ReadSnapshot(r io.Reader, nx, ny int) (*Relation, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	var hdr [40]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	bounds := geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(hdr[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:])),
	}
	count := binary.LittleEndian.Uint64(hdr[32:])
	rel, err := New(bounds, nx, ny)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		t, err := readTupleRecord(br)
		if err != nil {
			return nil, fmt.Errorf("relation: snapshot record %d: %w", i, err)
		}
		rel.restore(t)
	}
	return rel, nil
}

// restore re-inserts a persisted tuple keeping its original id, advancing
// the id allocator past it.
func (r *Relation) restore(t Tuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := len(r.tuples)
	r.tuples = append(r.tuples, t)
	r.dead = append(r.dead, false)
	r.byID[t.ID] = idx
	r.live++
	r.index.insert(idx, t.Pos, t.Size())
	if t.ID > r.nextID {
		r.nextID = t.ID
	}
}

// Log record kinds.
const (
	logInsert uint8 = 1
	logDelete uint8 = 2
)

// Logger appends every insert and delete of a relation to a log stream,
// allowing recovery of changes made after the last snapshot. Route writes
// through the logger so the log and the relation stay in step.
type Logger struct {
	rel *Relation
	w   *bufio.Writer
}

// NewLogger starts an insert log on w, writing the log header.
func NewLogger(rel *Relation, w io.Writer) (*Logger, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(logMagic[:]); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &Logger{rel: rel, w: bw}, nil
}

// Insert stores the tuple in the relation and appends it to the log.
func (l *Logger) Insert(pos geom.Point, payload []byte) (uint64, error) {
	id := l.rel.Insert(pos, payload)
	if err := writeLogRecord(l.w, logInsert, Tuple{ID: id, Pos: pos, Payload: payload}); err != nil {
		return id, err
	}
	return id, l.w.Flush()
}

// Delete removes the tuple from the relation and journals the deletion.
// It reports whether the tuple existed.
func (l *Logger) Delete(id uint64) (bool, error) {
	if !l.rel.Delete(id) {
		return false, nil
	}
	if err := writeLogRecord(l.w, logDelete, Tuple{ID: id}); err != nil {
		return true, err
	}
	return true, l.w.Flush()
}

// writeLogRecord emits one kind-prefixed, checksummed log record.
func writeLogRecord(w io.Writer, kind uint8, t Tuple) error {
	body := encodeTuple(t)
	rec := append([]byte{kind}, body...)
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(pre[4:], crc32.ChecksumIEEE(rec))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// readLogRecord reads one record written by writeLogRecord.
func readLogRecord(r io.Reader) (uint8, Tuple, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, Tuple{}, err
	}
	n := binary.LittleEndian.Uint32(pre[0:])
	sum := binary.LittleEndian.Uint32(pre[4:])
	if n < 29 || n > 64<<20 {
		return 0, Tuple{}, fmt.Errorf("%w: log record size %d", ErrBadSnapshot, n)
	}
	rec := make([]byte, n)
	if _, err := io.ReadFull(r, rec); err != nil {
		return 0, Tuple{}, err
	}
	if crc32.ChecksumIEEE(rec) != sum {
		return 0, Tuple{}, fmt.Errorf("%w: log checksum mismatch", ErrBadSnapshot)
	}
	t, err := decodeTuple(rec[1:])
	return rec[0], t, err
}

// Replay applies the inserts of a log stream to the relation, stopping
// cleanly at a truncated tail (the common crash shape) and returning the
// number of tuples applied.
func Replay(rel *Relation, r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, err
	}
	if magic != logMagic {
		return 0, fmt.Errorf("%w: bad log magic", ErrBadSnapshot)
	}
	applied := 0
	for {
		kind, t, err := readLogRecord(br)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		switch kind {
		case logInsert:
			rel.restore(t)
		case logDelete:
			rel.Delete(t.ID)
		default:
			return applied, fmt.Errorf("%w: unknown log record kind %d", ErrBadSnapshot, kind)
		}
		applied++
	}
}
