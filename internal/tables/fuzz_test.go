package tables

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFile feeds arbitrary bytes to the table decoder: every input
// either fails to open, or opens into a table whose every row reads
// and whose random accesses answer without error or panic.
func FuzzOpenFile(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.tbl")
	if err := WriteFile(seed, "car", sampleRows()); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "t.tbl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ft, err := OpenFile(path)
		if err != nil {
			return
		}
		defer ft.Close()
		for i := 0; i < ft.Len(); i++ {
			r, err := ft.SortedRow(i, nil)
			if err != nil {
				t.Fatalf("sorted row %d of %d: %v", i, ft.Len(), err)
			}
			if _, err := ft.ReverseRow(i, nil); err != nil {
				t.Fatalf("reverse row %d of %d: %v", i, ft.Len(), err)
			}
			if _, _, err := ft.RandomGet(r.CID, nil); err != nil {
				t.Fatalf("RandomGet(%d): %v", r.CID, err)
			}
		}
		if _, _, err := ft.RandomGet(-1, nil); err != nil {
			t.Fatalf("RandomGet(-1): %v", err)
		}
	})
}
