package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
)

// TestPaperGolden pins every paper experiment's table byte for byte at
// goldenScale; the Test*Shape tests assert the qualitative shapes the
// paper reports (who wins, by roughly what factor, where crossovers
// fall) on the same rows. EXPERIMENTS.md records the full-scale values.

var update = flag.Bool("update", false, "rewrite "+goldenPath)

const (
	goldenScale = 0.3
	goldenPath  = "testdata/paper_0.3.md"
)

// results memoizes each experiment's run at goldenScale, so the golden
// and the shape tests run every experiment once per test binary.
var results = map[string]Result{}

// result returns the experiment with canonical id run at goldenScale.
func result(t *testing.T, id string) Result {
	t.Helper()
	if testing.Short() {
		t.Skip("workload experiment")
	}
	if r, ok := results[id]; ok {
		return r
	}
	for _, e := range Experiments {
		if e.IDs[0] != id {
			continue
		}
		c := NewContext()
		c.Scale = goldenScale
		r, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		results[id] = r
		return r
	}
	t.Fatalf("no experiment %q", id)
	return Result{}
}

// rowsOf returns the typed rows of experiment id.
func rowsOf[R any](t *testing.T, id string) R {
	t.Helper()
	return result(t, id).Rows.(R)
}

// withoutWall returns t without its wall-clock columns, the rendering
// TestPaperGolden pins.
func withoutWall(t Table) Table {
	out := Table{Title: t.Title}
	var keep []int
	for i, c := range t.Columns {
		if !c.Wall {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	for _, row := range t.Rows {
		r := make([]string, len(keep))
		for j, i := range keep {
			r[j] = row[i]
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestPaperGolden renders every experiment without its wall-clock
// columns and compares the result with goldenPath; -update rewrites it.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range Experiments {
		if err := withoutWall(result(t, e.IDs[0]).Table).WriteMarkdown(&got); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d (rerun with -update to accept):\n got: %s\nwant: %s", goldenPath, i+1, g, w)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	res := rowsOf[[]Fig2Result](t, "fig2")
	if len(res) != 2*len(P0Grid) {
		t.Fatalf("rows = %d", len(res))
	}
	byQuery := map[string][]Fig2Result{}
	for _, r := range res {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for q, rows := range byQuery {
		minD, maxD := 1.0, 0.0
		minS, maxS := 1.0, 0.0
		for _, r := range rows {
			minD, maxD = math.Min(minD, r.SVAQD), math.Max(maxD, r.SVAQD)
			minS, maxS = math.Min(minS, r.SVAQ), math.Max(maxS, r.SVAQ)
		}
		// SVAQD is (nearly) flat in p0; SVAQ swings hard.
		if maxD-minD > 0.1 {
			t.Errorf("%s: SVAQD spread %v too large", q, maxD-minD)
		}
		if maxS-minS < 0.3 {
			t.Errorf("%s: SVAQ spread %v too small — no p0 sensitivity", q, maxS-minS)
		}
		if maxD < 0.6 {
			t.Errorf("%s: SVAQD best %v too low", q, maxD)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	res := rowsOf[[]Fig3Result](t, "fig3")
	if len(res) != 12 {
		t.Fatalf("rows = %d", len(res))
	}
	wins, sumD := 0, 0.0
	for _, r := range res {
		if r.SVAQD >= r.SVAQ-0.05 {
			wins++
		}
		sumD += r.SVAQD
	}
	// SVAQD matches or beats SVAQ on (almost) every query.
	if wins < 10 {
		t.Errorf("SVAQD only competitive on %d/12 queries: %+v", wins, res)
	}
	if mean := sumD / 12; mean < 0.65 {
		t.Errorf("mean SVAQD F1 %v too low", mean)
	}
}

func TestTable4Shape(t *testing.T) {
	res := rowsOf[[]Table4Result](t, "table4")
	byName := map[string]Table4Result{}
	for _, r := range res {
		byName[r.Models] = r
	}
	ideal := byName["Ideal Models"]
	if ideal.SVAQ != 1 || ideal.SVAQD != 1 {
		t.Errorf("ideal models F1 = %v/%v, want 1/1", ideal.SVAQ, ideal.SVAQD)
	}
	// Better detector, better or equal accuracy.
	if byName["MaskRCNN+I3D"].SVAQD < byName["YOLOv3+I3D"].SVAQD-0.1 {
		t.Errorf("MaskRCNN (%v) worse than YOLOv3 (%v)",
			byName["MaskRCNN+I3D"].SVAQD, byName["YOLOv3+I3D"].SVAQD)
	}
}

func TestTable5Shape(t *testing.T) {
	res := rowsOf[[]Table5Result](t, "table5")
	for _, r := range res {
		if r.ActionFPRWithSVAQD > r.ActionFPRRaw {
			t.Errorf("%s: action FPR worsened: %v -> %v", r.Query, r.ActionFPRRaw, r.ActionFPRWithSVAQD)
		}
		if r.ObjectFPRWithSVAQD > r.ObjectFPRRaw {
			t.Errorf("%s: object FPR worsened: %v -> %v", r.Query, r.ObjectFPRRaw, r.ObjectFPRWithSVAQD)
		}
		// The paper reports 50–80%+ of the noise eliminated.
		if r.ObjectNoiseEliminated < 0.5 {
			t.Errorf("%s: only %.0f%% object noise eliminated", r.Query, 100*r.ObjectNoiseEliminated)
		}
	}
}

func TestFig4And5Shape(t *testing.T) {
	res := rowsOf[[]ClipSizeResult](t, "fig45")
	byQuery := map[string][]ClipSizeResult{}
	for _, r := range res {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for q, rows := range byQuery {
		first, last := rows[0], rows[len(rows)-1]
		if last.Sequences > first.Sequences {
			t.Errorf("%s: sequences grew with clip size: %d -> %d", q, first.Sequences, last.Sequences)
		}
		minF1, maxF1 := 1.0, 0.0
		for _, r := range rows {
			minF1 = math.Min(minF1, r.FrameF1)
			maxF1 = math.Max(maxF1, r.FrameF1)
		}
		// Frame-level accuracy stays (nearly) flat across clip sizes;
		// the scaled-down workload adds variance, so the tolerance is
		// looser than the full-scale spread recorded in EXPERIMENTS.md.
		if maxF1-minF1 > 0.25 {
			t.Errorf("%s: frame F1 varies %v..%v across clip sizes", q, minF1, maxF1)
		}
		if minF1 < 0.65 {
			t.Errorf("%s: frame F1 %v too low", q, minF1)
		}
	}
}

func TestOnlineRuntimeShape(t *testing.T) {
	r := rowsOf[*RuntimeResult](t, "runtime")
	// The paper: >98% of online runtime is model inference.
	if r.InferenceShare < 0.98 {
		t.Errorf("inference share %v < 0.98", r.InferenceShare)
	}
	if r.ModelInvocations == 0 {
		t.Error("no invocations recorded")
	}
	if r.EndToEndTrainingEst < 60*60*1e9 {
		t.Error("end-to-end cost model missing")
	}
	if r.ClipP50 < 0 || r.ClipP99 < r.ClipP50 {
		t.Errorf("per-clip quantiles inconsistent: p50 %v, p99 %v", r.ClipP50, r.ClipP99)
	}
}

func TestDriftShape(t *testing.T) {
	r := rowsOf[*DriftResult](t, "drift")
	if r.SVAQD <= r.SVAQ {
		t.Errorf("SVAQD (%v) should beat SVAQ (%v) under drift", r.SVAQD, r.SVAQ)
	}
}

func TestTable6Shape(t *testing.T) {
	rows := rowsOf[[]Table6Row](t, "table6")
	byMK := map[string]map[int]Table6Row{}
	for _, r := range rows {
		if byMK[r.Method] == nil {
			byMK[r.Method] = map[int]Table6Row{}
		}
		byMK[r.Method][r.K] = r
	}
	for _, k := range Table6Ks {
		rv := byMK["RVAQ"][k].RandomAccesses
		pt := byMK["Pq-Traverse"][k].RandomAccesses
		ns := byMK["RVAQ-noSkip"][k].RandomAccesses
		if rv > pt {
			t.Errorf("K=%d: RVAQ (%d) above Pq-Traverse (%d)", k, rv, pt)
		}
		if ns <= rv {
			t.Errorf("K=%d: noSkip (%d) not worse than RVAQ (%d)", k, ns, rv)
		}
	}
	// Pq-Traverse cost is constant in K.
	if byMK["Pq-Traverse"][1].RandomAccesses != byMK["Pq-Traverse"][15].RandomAccesses {
		t.Error("Pq-Traverse accesses vary with K")
	}
	// RVAQ cost grows with K.
	if byMK["RVAQ"][15].RandomAccesses < byMK["RVAQ"][1].RandomAccesses {
		t.Error("RVAQ accesses shrank with K")
	}
}

func TestTable8Shape(t *testing.T) {
	rows := rowsOf[[]Table8Row](t, "table8")
	byMovie := map[string][]Table8Row{}
	for _, r := range rows {
		byMovie[r.Movie] = append(byMovie[r.Movie], r)
	}
	for movie, rs := range byMovie {
		if rs[0].Speedup < 1 {
			t.Errorf("%s: K=1 speedup %v < 1", movie, rs[0].Speedup)
		}
		last := rs[len(rs)-1]
		if !last.MaxK {
			t.Errorf("%s: last row not maxK", movie)
		}
		// At max K RVAQ converges to Pq-Traverse.
		if last.Speedup > 1.5 {
			t.Errorf("%s: maxK speedup %v should approach 1", movie, last.Speedup)
		}
	}
}

func TestAblationShortCircuit(t *testing.T) {
	r := rowsOf[*ShortCircuitResult](t, "shortcircuit")
	if r.InvocationsSC >= r.InvocationsFull {
		t.Errorf("short-circuit saved nothing: %d vs %d", r.InvocationsSC, r.InvocationsFull)
	}
	if r.SavedFraction <= 0 {
		t.Errorf("saved fraction %v", r.SavedFraction)
	}
}

func TestAblationCritValueAgreement(t *testing.T) {
	rows := rowsOf[[]CritValueResult](t, "critvalue")
	for _, r := range rows {
		if d := r.KClosed - r.KMonteCarlo; d < -1 || d > 1 {
			t.Errorf("p=%v: closed k=%d vs monte-carlo k=%d", r.P, r.KClosed, r.KMonteCarlo)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows := rowsOf[[]Table7Row](t, "table7")
	bySetMethod := map[string]map[string]Table7Row{}
	for _, r := range rows {
		if bySetMethod[r.Set] == nil {
			bySetMethod[r.Set] = map[string]Table7Row{}
		}
		bySetMethod[r.Set][r.Method] = r
	}
	for set, methods := range bySetMethod {
		rv := methods["RVAQ"].RandomAccesses
		pt := methods["Pq-Traverse"].RandomAccesses
		ns := methods["RVAQ-noSkip"].RandomAccesses
		if rv > pt {
			t.Errorf("%s: RVAQ (%d) above Pq-Traverse (%d)", set, rv, pt)
		}
		if ns <= rv {
			t.Errorf("%s: noSkip (%d) not worse than RVAQ (%d)", set, ns, rv)
		}
	}
}

func TestAblationAlphaShape(t *testing.T) {
	rows := rowsOf[[]AlphaResult](t, "alpha")
	if len(rows) != len(Alphas) {
		t.Fatalf("rows = %d", len(rows))
	}
	best := 0.0
	for _, r := range rows {
		if r.F1 > best {
			best = r.F1
		}
	}
	if best < 0.7 {
		t.Errorf("best F1 over the alpha sweep = %v", best)
	}
}
