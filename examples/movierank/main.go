// Movierank: the offline case end to end. Ingest two movies into an
// on-disk repository (one-time preprocessing, §4.2), then answer ad-hoc
// top-k queries with RVAQ and compare its table-access cost against the
// Pq-Traverse baseline (§4.3–4.4, Tables 6–8).
//
//	go run ./examples/movierank
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"vaq"
	"vaq/internal/detect"
	"vaq/internal/ingest"
	"vaq/internal/rvaq"
	"vaq/internal/synth"
)

func main() {
	dir, err := os.MkdirTemp("", "vaq-movierank-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	repo, err := vaq.OpenRepository(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Ingestion phase: once per movie, query-independent. Scale 0.4
	// keeps the example fast; drop the scale argument for full length.
	for _, name := range []string{"coffee_and_cigarettes", "iron_man"} {
		start := time.Now()
		qs, err := synth.MovieScaled(name, 0.4)
		if err != nil {
			log.Fatal(err)
		}
		scene := qs.World.Scene()
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		truth := qs.World.Truth
		vd, err := vaq.IngestVideo(det, rec, truth.Meta,
			truth.ObjectLabels(), truth.ActionLabels(), vaq.IngestConfig{})
		if err != nil {
			log.Fatal(err)
		}
		if err := repo.Add(name, vd); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %-24s %4d clips, %2d object + %d action tables (%v)\n",
			name, truth.Meta.Clips(), len(vd.ObjTables), len(vd.ActTables),
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()

	// Ad-hoc query 1: smoking scenes with a cup in frame, best five.
	q1 := vaq.Query{Action: "smoking", Objects: []vaq.Label{"cup"}}
	printTopK(repo, "coffee_and_cigarettes", q1, 5)

	// Ad-hoc query 2: a query nobody anticipated at ingestion time —
	// driving scenes with a car — answered from the same metadata.
	q2 := vaq.Query{Action: "driving", Objects: []vaq.Label{"car"}}
	printTopK(repo, "iron_man", q2, 3)

	// Cost comparison on the first query: RVAQ vs Pq-Traverse.
	vd, err := ingest.Load(dir + "/coffee_and_cigarettes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("access cost, RVAQ vs Pq-Traverse (top-1):")
	_, rs, err := rvaq.TopK(vd, q1, 1, rvaq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	_, ps, err := rvaq.PqTraverse(vd, q1, 1, rvaq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  RVAQ        %6d random accesses in %v\n", rs.Accesses.Random, rs.Runtime.Round(time.Microsecond))
	fmt.Printf("  Pq-Traverse %6d random accesses in %v (%.1fx more)\n",
		ps.Accesses.Random, ps.Runtime.Round(time.Microsecond),
		float64(ps.Accesses.Random)/float64(rs.Accesses.Random))
}

func printTopK(repo *vaq.Repository, movie string, q vaq.Query, k int) {
	results, stats, err := repo.TopKOpts(movie, q, k, vaq.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d %v on %s (|Pq|=%d, %d random accesses):\n",
		k, q, movie, stats.Candidates, stats.Accesses.Random)
	for i, r := range results {
		fmt.Printf("  %d. clips %4d..%-4d score %8.1f\n", i+1, r.Seq.Lo, r.Seq.Hi, r.Score)
	}
	fmt.Println()
}
