// Package tables implements the clip score tables of §4.2: per-label
// tables {cid, score} ordered by score, materialized once during the
// ingestion phase and consumed at query time through three access
// paths — sorted access from the top, reverse (sorted) access from the
// bottom, and random access by clip identifier — each counted through an
// AccessCounter so the experiments can report the access totals of
// Tables 6–8.
//
// Two implementations share the Table interface: MemTable keeps rows in
// memory; FileTable serves every row read from disk (one pread per
// logical access), making the random-access cost of the offline
// algorithms physically real.
package tables

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// Row is one entry of a clip score table.
type Row struct {
	CID   int32
	Score float64
}

// AccessCounter tallies logical accesses to the clip score tables; the
// offline experiments report these counts. Not safe for concurrent use
// (one counter per query execution).
type AccessCounter struct {
	Sorted  int64 // sorted accesses from the top
	Reverse int64 // sorted accesses from the bottom
	Random  int64 // random accesses by clip identifier
}

// Add accumulates another counter's tallies.
func (c *AccessCounter) Add(o AccessCounter) {
	c.Sorted += o.Sorted
	c.Reverse += o.Reverse
	c.Random += o.Random
}

// Table is one label's clip score table.
type Table interface {
	// Label names the object or action type the table covers.
	Label() string
	// Len returns the number of rows.
	Len() int
	// SortedRow returns the i-th row in non-increasing score order
	// (i = 0 is the highest-scoring clip).
	SortedRow(i int, c *AccessCounter) (Row, error)
	// ReverseRow returns the i-th row from the bottom (i = 0 is the
	// lowest-scoring clip).
	ReverseRow(i int, c *AccessCounter) (Row, error)
	// RandomGet returns the score of the given clip, reporting whether
	// the clip appears in the table.
	RandomGet(cid int32, c *AccessCounter) (float64, bool, error)
}

// ErrRowRange is returned when a sorted/reverse access runs past the
// table.
var ErrRowRange = errors.New("tables: row index out of range")

// MemTable is an in-memory Table.
type MemTable struct {
	label   string
	byScore []Row // non-increasing score
	byCID   []Row // increasing cid
}

// NewMemTable builds an in-memory table from rows (copied, then sorted).
func NewMemTable(label string, rows []Row) *MemTable {
	t := &MemTable{label: label}
	t.byScore = append([]Row(nil), rows...)
	sortByScore(t.byScore)
	t.byCID = append([]Row(nil), rows...)
	sort.Slice(t.byCID, func(i, j int) bool { return t.byCID[i].CID < t.byCID[j].CID })
	return t
}

// sortByScore orders rows by non-increasing score, breaking ties by cid
// so table order is deterministic.
func sortByScore(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].CID < rows[j].CID
	})
}

// Label implements Table.
func (t *MemTable) Label() string { return t.label }

// Len implements Table.
func (t *MemTable) Len() int { return len(t.byScore) }

// SortedRow implements Table.
func (t *MemTable) SortedRow(i int, c *AccessCounter) (Row, error) {
	if i < 0 || i >= len(t.byScore) {
		return Row{}, fmt.Errorf("%w: sorted %d of %d", ErrRowRange, i, len(t.byScore))
	}
	if c != nil {
		c.Sorted++
	}
	return t.byScore[i], nil
}

// ReverseRow implements Table.
func (t *MemTable) ReverseRow(i int, c *AccessCounter) (Row, error) {
	if i < 0 || i >= len(t.byScore) {
		return Row{}, fmt.Errorf("%w: reverse %d of %d", ErrRowRange, i, len(t.byScore))
	}
	if c != nil {
		c.Reverse++
	}
	return t.byScore[len(t.byScore)-1-i], nil
}

// RandomGet implements Table.
func (t *MemTable) RandomGet(cid int32, c *AccessCounter) (float64, bool, error) {
	if c != nil {
		c.Random++
	}
	i := sort.Search(len(t.byCID), func(i int) bool { return t.byCID[i].CID >= cid })
	if i < len(t.byCID) && t.byCID[i].CID == cid {
		return t.byCID[i].Score, true, nil
	}
	return 0, false, nil
}

// Rows returns a copy of the table in score order (ingestion helper).
func (t *MemTable) Rows() []Row { return append([]Row(nil), t.byScore...) }

// File format: little-endian.
//
//	magic "VAQT" | version u32 | labelLen u32 | label | rowCount u64 |
//	rowCount rows sorted by score desc | rowCount rows sorted by cid asc
//
// Each row is cid int32 (4 bytes) + score float64 (8 bytes).
const (
	fileMagic   = "VAQT"
	fileVersion = 1
	rowSize     = 12
)

// WriteFile persists rows as a table file at path.
func WriteFile(path, label string, rows []Row) error {
	byScore := append([]Row(nil), rows...)
	sortByScore(byScore)
	byCID := append([]Row(nil), rows...)
	sort.Slice(byCID, func(i, j int) bool { return byCID[i].CID < byCID[j].CID })

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tables: create %s: %w", path, err)
	}
	defer f.Close()
	header := make([]byte, 0, 16+len(label))
	header = append(header, fileMagic...)
	header = binary.LittleEndian.AppendUint32(header, fileVersion)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(label)))
	header = append(header, label...)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(rows)))
	if _, err := f.Write(header); err != nil {
		return fmt.Errorf("tables: write header: %w", err)
	}
	buf := make([]byte, 0, rowSize*len(rows))
	for _, r := range byScore {
		buf = appendRow(buf, r)
	}
	for _, r := range byCID {
		buf = appendRow(buf, r)
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("tables: write rows: %w", err)
	}
	return f.Sync()
}

func appendRow(buf []byte, r Row) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.CID))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Score))
}

func decodeRow(b []byte) Row {
	return Row{
		CID:   int32(binary.LittleEndian.Uint32(b)),
		Score: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
	}
}

// FileTable serves a table file, reading each accessed row from disk.
// It is safe for concurrent use.
type FileTable struct {
	f        *os.File
	label    string
	n        int
	scoreOff int64 // offset of the score-sorted region
	cidOff   int64 // offset of the cid-sorted region

	indexOnce sync.Once // guards the lazy cid-index load
	cidIndex  []int32
	indexErr  error
}

// OpenFile opens a table file for query-time access. The header must
// describe the file exactly: a label length or row count that does not
// add up to the file's size is rejected here, before any row is read.
func OpenFile(path string) (*FileTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tables: open %s: %w", path, err)
	}
	head := make([]byte, 12)
	if _, err := f.ReadAt(head, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tables: read header of %s: %w", path, err)
	}
	if string(head[:4]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("tables: %s is not a table file", path)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != fileVersion {
		f.Close()
		return nil, fmt.Errorf("tables: %s has unsupported version %d", path, v)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tables: stat %s: %w", path, err)
	}
	// Every quantity stays in uint64 and is checked against the size
	// before it is multiplied, so no header can overflow the arithmetic.
	size := uint64(st.Size())
	labelLen := uint64(binary.LittleEndian.Uint32(head[8:]))
	if size < 20+labelLen {
		f.Close()
		return nil, fmt.Errorf("tables: %s: label length %d exceeds the file", path, labelLen)
	}
	rest := make([]byte, labelLen+8)
	if _, err := f.ReadAt(rest, 12); err != nil {
		f.Close()
		return nil, fmt.Errorf("tables: read label of %s: %w", path, err)
	}
	label := string(rest[:labelLen])
	n := binary.LittleEndian.Uint64(rest[labelLen:])
	if body := size - 20 - labelLen; body%(2*rowSize) != 0 || body/(2*rowSize) != n {
		f.Close()
		return nil, fmt.Errorf("tables: %s: header claims %d rows but the file holds %d bytes of rows", path, n, body)
	}
	scoreOff := int64(20 + labelLen)
	return &FileTable{
		f:        f,
		label:    label,
		n:        int(n),
		scoreOff: scoreOff,
		cidOff:   scoreOff + int64(n)*rowSize,
	}, nil
}

// Close releases the underlying file.
func (t *FileTable) Close() error { return t.f.Close() }

// Label implements Table.
func (t *FileTable) Label() string { return t.label }

// Len implements Table.
func (t *FileTable) Len() int { return t.n }

func (t *FileTable) readRow(off int64) (Row, error) {
	var b [rowSize]byte
	if _, err := t.f.ReadAt(b[:], off); err != nil {
		return Row{}, fmt.Errorf("tables: read row: %w", err)
	}
	return decodeRow(b[:]), nil
}

// SortedRow implements Table.
func (t *FileTable) SortedRow(i int, c *AccessCounter) (Row, error) {
	if i < 0 || i >= t.n {
		return Row{}, fmt.Errorf("%w: sorted %d of %d", ErrRowRange, i, t.n)
	}
	if c != nil {
		c.Sorted++
	}
	return t.readRow(t.scoreOff + int64(i)*rowSize)
}

// ReverseRow implements Table.
func (t *FileTable) ReverseRow(i int, c *AccessCounter) (Row, error) {
	if i < 0 || i >= t.n {
		return Row{}, fmt.Errorf("%w: reverse %d of %d", ErrRowRange, i, t.n)
	}
	if c != nil {
		c.Reverse++
	}
	return t.readRow(t.scoreOff + int64(t.n-1-i)*rowSize)
}

// RandomGet implements Table. The binary search runs over an in-memory
// cid index (loaded lazily once, as a real system would cache its
// index); the row itself is read from disk.
func (t *FileTable) RandomGet(cid int32, c *AccessCounter) (float64, bool, error) {
	if c != nil {
		c.Random++
	}
	if t.indexOnce.Do(t.loadIndex); t.indexErr != nil {
		return 0, false, t.indexErr
	}
	i := sort.Search(len(t.cidIndex), func(i int) bool { return t.cidIndex[i] >= cid })
	if i >= len(t.cidIndex) || t.cidIndex[i] != cid {
		return 0, false, nil
	}
	r, err := t.readRow(t.cidOff + int64(i)*rowSize)
	if err != nil {
		return 0, false, err
	}
	return r.Score, true, nil
}

// loadIndex reads the cid column once; a failure sticks in indexErr.
func (t *FileTable) loadIndex() {
	buf := make([]byte, t.n*rowSize)
	if _, err := t.f.ReadAt(buf, t.cidOff); err != nil {
		t.indexErr = fmt.Errorf("tables: load cid index: %w", err)
		return
	}
	t.cidIndex = make([]int32, t.n)
	for i := 0; i < t.n; i++ {
		t.cidIndex[i] = int32(binary.LittleEndian.Uint32(buf[i*rowSize:]))
	}
}
