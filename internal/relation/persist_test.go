package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"qsub/internal/geom"
)

func populatedRelation(t *testing.T, n int, seed int64) *Relation {
	t.Helper()
	rel := MustNew(testBounds, 8, 8)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		payload := make([]byte, rng.Intn(16))
		rng.Read(payload)
		rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), payload)
	}
	return rel
}

func assertSameTuples(t *testing.T, a, b *Relation) {
	t.Helper()
	ta, tb := a.All(), b.All()
	if len(ta) != len(tb) {
		t.Fatalf("tuple count %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i].ID != tb[i].ID || ta[i].Pos != tb[i].Pos || !bytes.Equal(ta[i].Payload, tb[i].Payload) {
			t.Fatalf("tuple %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rel := populatedRelation(t, 500, 1)
	var buf bytes.Buffer
	if err := rel.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, rel, got)
	if got.Bounds() != rel.Bounds() {
		t.Fatalf("bounds %v vs %v", got.Bounds(), rel.Bounds())
	}
	// Search works over the restored index.
	q := geom.R(20, 20, 60, 60)
	if rel.Count(q) != got.Count(q) {
		t.Fatalf("restored count %d, want %d", got.Count(q), rel.Count(q))
	}
	// Id allocation continues past restored ids.
	id := got.Insert(geom.Pt(1, 1), nil)
	if id <= rel.MaxID() {
		t.Fatalf("new id %d collides with restored ids (max %d)", id, rel.MaxID())
	}
}

func TestSnapshotEmptyRelation(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	var buf bytes.Buffer
	if err := rel.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("restored %d tuples from empty snapshot", got.Len())
	}
}

func TestSnapshotRejectsBadMagic(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("NOTASNAP00000000")), 4, 4); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	rel := populatedRelation(t, 50, 2)
	var buf bytes.Buffer
	if err := rel.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the record area (past magic + header).
	data[len(data)-3] ^= 0xFF
	_, err := ReadSnapshot(bytes.NewReader(data), 4, 4)
	if err == nil {
		t.Fatal("corrupted snapshot should be rejected")
	}
	if !errors.Is(err, ErrBadSnapshot) && err.Error() == "" {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSnapshotDetectsTruncation(t *testing.T) {
	rel := populatedRelation(t, 50, 3)
	var buf bytes.Buffer
	if err := rel.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadSnapshot(bytes.NewReader(data), 4, 4); err == nil {
		t.Fatal("truncated snapshot should be rejected")
	}
}

// snapshotStream is a snapshot of tuples with the given ids, in the given
// order, written record by record as WriteSnapshot writes them.
func snapshotStream(t *testing.T, ids ...uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(testBounds.MinX))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(testBounds.MinY))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(testBounds.MaxX))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(testBounds.MaxY))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(ids)))
	buf.Write(hdr[:])
	for i, id := range ids {
		if err := writeTupleRecord(&buf, Tuple{ID: id, Pos: geom.Pt(float64(i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSnapshotRejectsUnorderedIDs: Delta and InsertedSince binary-search
// the tuples by id, so a snapshot whose ids are not positive and strictly
// rising is malformed. A duplicate id would count a tuple
// live twice and leave a slot Delete cannot reach; ids out of order would
// make deltas skip tuples.
func TestSnapshotRejectsUnorderedIDs(t *testing.T) {
	if rel, err := ReadSnapshot(bytes.NewReader(snapshotStream(t, 1, 2, 5)), 4, 4); err != nil || rel.Len() != 3 || rel.MaxID() != 5 {
		t.Fatalf("ascending ids with gaps: err %v", err)
	}
	for name, ids := range map[string][]uint64{
		"duplicate":  {1, 2, 2},
		"descending": {1, 3, 2},
		"zero":       {0, 1},
	} {
		_, err := ReadSnapshot(bytes.NewReader(snapshotStream(t, ids...)), 4, 4)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s ids %v: err %v, want ErrBadSnapshot", name, ids, err)
		}
	}
}
