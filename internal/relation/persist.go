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
// full tuple set, so a subscription daemon can restart without losing the
// database it disseminates (qsubd -snapshot). The format is deliberately
// simple — a fixed header, little-endian records in ascending id order,
// and a CRC32 per record so truncated or corrupt tails are detected
// instead of silently loaded.

// snapshotMagic identifies relation snapshot streams.
var snapshotMagic = [8]byte{'Q', 'S', 'U', 'B', 'R', 'E', 'L', '1'}

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
// nx × ny grid index, laid out once the last tuple is in. It refuses a
// stream whose tuple ids are not positive and strictly rising, as the
// relation assigns them.
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
		if err := rel.restore(t); err != nil {
			return nil, fmt.Errorf("relation: snapshot record %d: %w", i, err)
		}
	}
	rel.index.layOut() // nothing else holds rel yet
	return rel, nil
}

// restore re-inserts a persisted tuple keeping its original id, advancing
// the id allocator to it. The id must exceed every id restored before it:
// Delta, InsertedSince and Delete binary-search the tuples by id, every
// search returns slot order as id order, and a repeated id would count a
// tuple live twice and leave a slot Delete cannot reach.
func (r *Relation) restore(t Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.ID <= r.nextID {
		return fmt.Errorf("%w: tuple id %d does not follow id %d", ErrBadSnapshot, t.ID, r.nextID)
	}
	r.push(t)
	r.nextID = t.ID
	return nil
}
