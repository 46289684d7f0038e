package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Experiment is one paper experiment as vaqbench selects it.
type Experiment struct {
	// IDs are the names -exp accepts for it; the first is canonical and
	// names its CSV file.
	IDs []string
	// Run runs the experiment at the context's scale.
	Run func(*Context) (Result, error)
}

// Result is one experiment run: its typed rows, which the shape tests
// check, and the table they render to.
type Result struct {
	Rows  any
	Table Table
}

// experiment pairs a typed experiment with the function rendering its
// rows.
func experiment[R any](run func(*Context) (R, error), table func(R) Table, ids ...string) Experiment {
	return Experiment{IDs: ids, Run: func(c *Context) (Result, error) {
		rows, err := run(c)
		if err != nil {
			return Result{}, err
		}
		return Result{Rows: rows, Table: table(rows)}, nil
	}}
}

// Experiments lists every paper experiment in the order vaqbench runs
// them. "ablation" selects all four ablations.
var Experiments = []Experiment{
	experiment((*Context).Fig2, fig2Table, "fig2"),
	experiment((*Context).Fig3, fig3Table, "fig3"),
	experiment((*Context).Table3, table3Table, "table3"),
	experiment((*Context).Table4, table4Table, "table4"),
	experiment((*Context).Table5, table5Table, "table5"),
	experiment((*Context).Fig4And5, fig45Table, "fig45", "fig4", "fig5"),
	experiment((*Context).OnlineRuntime, runtimeTable, "runtime"),
	experiment((*Context).Drift, driftTable, "drift"),
	experiment((*Context).Table6, table6Table, "table6"),
	experiment((*Context).Table7, table7Table, "table7"),
	experiment((*Context).Table8, table8Table, "table8"),
	experiment((*Context).AblationShortCircuit, shortCircuitTable, "shortcircuit", "ablation"),
	experiment((*Context).AblationKernelU, kernelUTable, "kernelu", "ablation"),
	experiment((*Context).AblationAlpha, alphaTable, "alpha", "ablation"),
	experiment((*Context).AblationCritValue, critValueTable, "critvalue", "ablation"),
}

func f3(v float64) string            { return strconv.FormatFloat(v, 'f', 3, 64) }
func f4(v float64) string            { return strconv.FormatFloat(v, 'f', 4, 64) }
func pct(v float64) string           { return strconv.FormatFloat(100*v, 'f', 1, 64) + "%" }
func itoa[I int | int64](v I) string { return strconv.FormatInt(int64(v), 10) }

func fig2Table(rows []Fig2Result) Table {
	t := Table{Title: "Figure 2: F1 vs initial background probability p0", Columns: cols("query", "p0", "SVAQ F1", "SVAQD F1")}
	for _, r := range rows {
		t.add(r.Query, fmt.Sprintf("%.0e", r.P0), f3(r.SVAQ), f3(r.SVAQD))
	}
	return t
}

func fig3Table(rows []Fig3Result) Table {
	t := Table{Title: "Figure 3: F1 of SVAQ (p0 = 1e-4) and SVAQD on q1..q12", Columns: cols("set", "query", "SVAQ F1", "SVAQD F1")}
	for _, r := range rows {
		t.add(r.Set, r.Query, f3(r.SVAQ), f3(r.SVAQD))
	}
	return t
}

func table3Table(rows []Table3Result) Table {
	t := Table{Title: "Table 3: F1 with varying object predicates", Columns: cols("query", "SVAQ F1", "SVAQD F1")}
	for _, r := range rows {
		t.add(r.Query, f3(r.SVAQ), f3(r.SVAQD))
	}
	return t
}

func table4Table(rows []Table4Result) Table {
	t := Table{Title: "Table 4: F1 by detection model, {a=blowing_leaves, o=car}", Columns: cols("models", "SVAQ F1", "SVAQD F1")}
	for _, r := range rows {
		t.add(r.Models, f3(r.SVAQ), f3(r.SVAQD))
	}
	return t
}

func table5Table(rows []Table5Result) Table {
	t := Table{Title: "Table 5: detector FPR without vs with SVAQD", Columns: cols(
		"query", "action FPR raw", "action FPR with SVAQD", "object FPR raw", "object FPR with SVAQD",
		"action noise eliminated", "object noise eliminated")}
	for _, r := range rows {
		t.add(r.Query, f4(r.ActionFPRRaw), f4(r.ActionFPRWithSVAQD), f4(r.ObjectFPRRaw), f4(r.ObjectFPRWithSVAQD),
			pct(r.ActionNoiseEliminated), pct(r.ObjectNoiseEliminated))
	}
	return t
}

func fig45Table(rows []ClipSizeResult) Table {
	t := Table{Title: "Figures 4-5: result sequences and frame-level F1 by clip size", Columns: cols(
		"query", "clip frames", "sequences", "frame F1", "frames reported")}
	for _, r := range rows {
		t.add(r.Query, itoa(r.ClipFrames), itoa(r.Sequences), f3(r.FrameF1), itoa(r.FramesFound))
	}
	return t
}

func runtimeTable(r *RuntimeResult) Table {
	t := Table{Title: "Section 5.2: online runtime decomposition (q1)", Columns: cols(
		"query", "model invocations", "inference (simulated)", "end-to-end training (cost model)")}
	t.Columns = append(t.Columns, wallCols("algorithm", "total", "inference share", "clip p50", "clip p90", "clip p99")...)
	t.add(r.Query, itoa(r.ModelInvocations), r.InferenceTime.Round(time.Second).String(), r.EndToEndTrainingEst.String(),
		r.AlgorithmTime.Round(time.Millisecond).String(), r.TotalRuntime.Round(time.Second).String(), pct(r.InferenceShare),
		r.ClipP50.String(), r.ClipP90.String(), r.ClipP99.String())
	return t
}

func driftTable(r *DriftResult) Table {
	t := Table{Title: "Concept drift: detector noise x6 at midstream", Columns: cols("query", "SVAQ F1", "SVAQD F1")}
	t.add(r.Query, f3(r.SVAQ), f3(r.SVAQD))
	return t
}

func table6Table(rows []Table6Row) Table {
	t := Table{Title: "Table 6: offline methods on Coffee and Cigarettes by K (file-backed tables)", Columns: cols(
		"method", "K", "random accesses", "sorted accesses")}
	t.Columns = append(t.Columns, wallCols("runtime")...)
	for _, r := range rows {
		t.add(r.Method, itoa(r.K), itoa(r.RandomAccesses), itoa(r.SortedAccesses), r.Runtime.Round(time.Microsecond).String())
	}
	return t
}

func table7Table(rows []Table7Row) Table {
	t := Table{Title: "Table 7: offline methods on YouTube q1, q2 at K=5", Columns: cols("set", "method", "random accesses")}
	t.Columns = append(t.Columns, wallCols("runtime")...)
	for _, r := range rows {
		t.add(r.Set, r.Method, itoa(r.RandomAccesses), r.Runtime.Round(time.Microsecond).String())
	}
	return t
}

func table8Table(rows []Table8Row) Table {
	t := Table{Title: "Table 8: RVAQ speedup over Pq-Traverse (random accesses)", Columns: cols("movie", "K", "speedup")}
	for _, r := range rows {
		k := itoa(r.K)
		if r.MaxK {
			k = "max (" + k + ")"
		}
		t.add(r.Movie, k, strconv.FormatFloat(r.Speedup, 'f', 2, 64)+"x")
	}
	return t
}

func shortCircuitTable(r *ShortCircuitResult) Table {
	t := Table{Title: "Ablation: predicate short-circuit and ordering (model invocations)", Columns: cols(
		"query", "full", "short-circuit", "saved", "reversed order", "adaptive order", "final order")}
	t.add(r.Query, itoa(r.InvocationsFull), itoa(r.InvocationsSC), pct(r.SavedFraction),
		itoa(r.InvocationsSCReversed), itoa(r.InvocationsAdaptive), strings.Join(r.FinalOrder, ", "))
	return t
}

func kernelUTable(rows []KernelUResult) Table {
	t := Table{Title: "Ablation: SVAQD kernel scale u, {a=blowing_leaves, o=car}", Columns: cols("u", "F1")}
	for _, r := range rows {
		t.add(strconv.FormatFloat(r.KernelU, 'f', 0, 64), f3(r.F1))
	}
	return t
}

func alphaTable(rows []AlphaResult) Table {
	t := Table{Title: "Ablation: significance level alpha (SVAQD), {a=blowing_leaves, o=car}", Columns: cols(
		"alpha", "precision", "recall", "F1")}
	for _, r := range rows {
		t.add(strconv.FormatFloat(r.Alpha, 'f', -1, 64), f3(r.Precision), f3(r.Recall), f3(r.F1))
	}
	return t
}

func critValueTable(rows []CritValueResult) Table {
	t := Table{Title: "Ablation: critical value, Naus closed form vs Monte Carlo (w=50, N=5000)", Columns: cols(
		"p", "closed-form k", "Monte-Carlo k")}
	t.Columns = append(t.Columns, wallCols("closed-form time (N=100k)", "Monte-Carlo time")...)
	for _, r := range rows {
		t.add(fmt.Sprintf("%.0e", r.P), itoa(r.KClosed), itoa(r.KMonteCarlo),
			r.ClosedTime.Round(time.Microsecond).String(), r.MonteCarloTime.Round(time.Millisecond).String())
	}
	return t
}
