package tables

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sampleRows() []Row {
	return []Row{
		{CID: 3, Score: 0.5},
		{CID: 1, Score: 2.0},
		{CID: 7, Score: 1.0},
		{CID: 2, Score: 1.0}, // tie with CID 7: lower cid first
	}
}

func TestMemTableSortedOrder(t *testing.T) {
	mt := NewMemTable("car", sampleRows())
	var c AccessCounter
	wantCIDs := []int32{1, 2, 7, 3}
	for i, want := range wantCIDs {
		r, err := mt.SortedRow(i, &c)
		if err != nil {
			t.Fatal(err)
		}
		if r.CID != want {
			t.Fatalf("sorted row %d = cid %d, want %d", i, r.CID, want)
		}
	}
	if c.Sorted != 4 {
		t.Fatalf("sorted counter = %d", c.Sorted)
	}
}

func TestMemTableReverseOrder(t *testing.T) {
	mt := NewMemTable("car", sampleRows())
	var c AccessCounter
	r, err := mt.ReverseRow(0, &c)
	if err != nil {
		t.Fatal(err)
	}
	if r.CID != 3 {
		t.Fatalf("bottom row cid = %d, want 3", r.CID)
	}
	if c.Reverse != 1 {
		t.Fatalf("reverse counter = %d", c.Reverse)
	}
}

func TestMemTableRandomGet(t *testing.T) {
	mt := NewMemTable("car", sampleRows())
	var c AccessCounter
	s, ok, err := mt.RandomGet(7, &c)
	if err != nil || !ok || s != 1.0 {
		t.Fatalf("RandomGet(7) = %v,%v,%v", s, ok, err)
	}
	_, ok, _ = mt.RandomGet(99, &c)
	if ok {
		t.Fatal("missing cid found")
	}
	if c.Random != 2 {
		t.Fatalf("random counter = %d", c.Random)
	}
}

func TestMemTableRangeErrors(t *testing.T) {
	mt := NewMemTable("car", sampleRows())
	if _, err := mt.SortedRow(4, nil); err == nil {
		t.Error("sorted out of range accepted")
	}
	if _, err := mt.SortedRow(-1, nil); err == nil {
		t.Error("negative row accepted")
	}
	if _, err := mt.ReverseRow(4, nil); err == nil {
		t.Error("reverse out of range accepted")
	}
}

func TestNilCounterSafe(t *testing.T) {
	mt := NewMemTable("car", sampleRows())
	if _, err := mt.SortedRow(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mt.RandomGet(1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "car.tbl")
	rows := sampleRows()
	if err := WriteFile(path, "car", rows); err != nil {
		t.Fatal(err)
	}
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	if ft.Label() != "car" || ft.Len() != 4 {
		t.Fatalf("label=%q len=%d", ft.Label(), ft.Len())
	}
	mt := NewMemTable("car", rows)
	var cm, cf AccessCounter
	for i := 0; i < 4; i++ {
		rm, _ := mt.SortedRow(i, &cm)
		rf, err := ft.SortedRow(i, &cf)
		if err != nil {
			t.Fatal(err)
		}
		if rm != rf {
			t.Fatalf("sorted row %d: mem %v vs file %v", i, rm, rf)
		}
		rm, _ = mt.ReverseRow(i, &cm)
		rf, _ = ft.ReverseRow(i, &cf)
		if rm != rf {
			t.Fatalf("reverse row %d: mem %v vs file %v", i, rm, rf)
		}
	}
	for _, cid := range []int32{1, 2, 3, 7, 42} {
		sm, okm, _ := mt.RandomGet(cid, &cm)
		sf, okf, err := ft.RandomGet(cid, &cf)
		if err != nil {
			t.Fatal(err)
		}
		if sm != sf || okm != okf {
			t.Fatalf("RandomGet(%d): mem %v,%v vs file %v,%v", cid, sm, okm, sf, okf)
		}
	}
	if cm != cf {
		t.Fatalf("counters diverge: mem %+v vs file %+v", cm, cf)
	}
}

// Property: MemTable and FileTable agree on random workloads.
func TestPropMemFileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dir := t.TempDir()
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200)
		rows := make([]Row, n)
		seen := map[int32]bool{}
		for i := range rows {
			cid := int32(rng.Intn(500))
			for seen[cid] {
				cid = int32(rng.Intn(500))
			}
			seen[cid] = true
			rows[i] = Row{CID: cid, Score: float64(rng.Intn(50))} // ties likely
		}
		path := filepath.Join(dir, "t.tbl")
		if err := WriteFile(path, "x", rows); err != nil {
			t.Fatal(err)
		}
		ft, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mt := NewMemTable("x", rows)
		for i := 0; i < n; i++ {
			rm, _ := mt.SortedRow(i, nil)
			rf, _ := ft.SortedRow(i, nil)
			if rm != rf {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, rm, rf)
			}
		}
		for cid := int32(0); cid < 500; cid += 17 {
			sm, okm, _ := mt.RandomGet(cid, nil)
			sf, okf, _ := ft.RandomGet(cid, nil)
			if sm != sf || okm != okf {
				t.Fatalf("trial %d cid %d: %v,%v vs %v,%v", trial, cid, sm, okm, sf, okf)
			}
		}
		ft.Close()
	}
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing.tbl")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.tbl")
	if err := os.WriteFile(bad, []byte("not a table at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Error("garbage file accepted")
	}
}

// TestOpenFileRejectsCorruptHeader: a header whose label length or row
// count does not add up to the file size fails to open, instead of
// panicking or exhausting memory on the first random access.
func TestOpenFileRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "car.tbl")
	if err := WriteFile(good, "car", sampleRows()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	const countOff = 12 + len("car") // the u64 row count follows the label
	withCount := func(n uint64) []byte {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(b[countOff:], n)
		return b
	}
	withLabelLen := func(l uint32) []byte {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(b[8:], l)
		return b
	}
	cases := map[string][]byte{
		"high-bit row count":       withCount(1<<63 | 4),
		"row count 2^40":           withCount(1 << 40),
		"row count beyond file":    withCount(5),
		"label length beyond file": withLabelLen(1000),
		"one byte short":           raw[:len(raw)-1],
		"trailing byte":            append(append([]byte(nil), raw...), 0),
	}
	for name, data := range cases {
		path := filepath.Join(dir, "corrupt.tbl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ft, err := OpenFile(path); err == nil {
			ft.Close()
			t.Errorf("%s: opened", name)
		}
	}
}

// TestFileTableConcurrentRandomGet: concurrent queries share one
// re-opened table, so the lazy cid-index load must be race-free (run
// under -race) and every reader must see the MemTable's answers.
func TestFileTableConcurrentRandomGet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([]Row, 300)
	for i := range rows {
		rows[i] = Row{CID: int32(2 * i), Score: float64(rng.Intn(40))}
	}
	path := filepath.Join(t.TempDir(), "t.tbl")
	if err := WriteFile(path, "x", rows); err != nil {
		t.Fatal(err)
	}
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	mt := NewMemTable("x", rows)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cid := int32(0); cid < 2*int32(len(rows)); cid++ {
				sm, okm, _ := mt.RandomGet(cid, nil)
				sf, okf, err := ft.RandomGet(cid, nil)
				if err != nil || sm != sf || okm != okf {
					t.Errorf("RandomGet(%d): file %v,%v,%v vs mem %v,%v", cid, sf, okf, err, sm, okm)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEmptyTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.tbl")
	if err := WriteFile(path, "none", nil); err != nil {
		t.Fatal(err)
	}
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	if ft.Len() != 0 {
		t.Fatalf("len = %d", ft.Len())
	}
	if _, err := ft.SortedRow(0, nil); err == nil {
		t.Error("row 0 of empty table accepted")
	}
	if _, ok, err := ft.RandomGet(1, nil); err != nil || ok {
		t.Errorf("RandomGet on empty = %v, %v", ok, err)
	}
}

func TestAccessCounterAdd(t *testing.T) {
	a := AccessCounter{Sorted: 1, Reverse: 2, Random: 3}
	a.Add(AccessCounter{Sorted: 10, Reverse: 20, Random: 30})
	if a != (AccessCounter{Sorted: 11, Reverse: 22, Random: 33}) {
		t.Fatalf("Add = %+v", a)
	}
}
