// Sweep-grid: recompute the paper's conclusions as a parallel sweep, then
// stress them. A single QuerySweepSpec over a report query fans (owner
// utilization × task ratio × owner-burst variance) across the analytic and
// DES backends on a context-cancellable worker pool; results stream in as
// each point completes. The analytic model sees only the mean owner demand, so its
// half of the grid repeats across the OwnerCV2 axis, and each repeat copies
// the answer solved at its lowest grid index, while the DES backend shows
// what CV²=16 bursts do to the weighted efficiency the analysis promises.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"feasim"
)

func main() {
	// A guard rail for the whole sweep: the worker pool unwinds promptly if
	// the budget expires.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	pr := feasim.Protocol{Batches: 5, BatchSize: 100, Level: 0.90}
	spec := feasim.QuerySweepSpec{
		Base:      feasim.ReportQuery{Scenario: feasim.Scenario{Name: "conclusions", W: 12, O: 10, J: 1}},
		Util:      []float64{0.05, 0.2},
		TaskRatio: []float64{4, 8, 13},
		OwnerCV2:  []float64{1, 16}, // felt by the DES backend; analytic dedups
		Backends:  []string{feasim.BackendAnalytic, feasim.BackendDES},
		Seed:      1993,
		Protocol:  &pr,
	}

	ch, err := feasim.RunQuerySweep(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("weighted efficiency per (util, task ratio, owner CV²) — paper's bar is 0.80")
	fmt.Printf("%-6s %-9s %-6s %-7s %-5s %-10s %s\n",
		"point", "backend", "util", "ratio", "cv2", "weff", "notes")
	solved, cached := 0, 0
	for res := range ch {
		if res.Err != nil {
			fmt.Printf("%-6d %-9s error: %v\n", res.Point.Index, res.Point.Backend, res.Err)
			continue
		}
		solved++
		notes := ""
		if res.Cached {
			cached++
			notes = "cached"
		}
		s := res.Point.Query.(feasim.ReportQuery).Scenario
		rep := res.Answer.(feasim.ReportAnswer).Report
		fmt.Printf("%-6d %-9s %-6.2f %-7.4g %-5.4g %-10.4f %s\n",
			res.Point.Index, res.Point.Backend, s.Util, rep.TaskRatio, s.OwnerCV2,
			rep.WeightedEfficiency, notes)
	}
	if err := ctx.Err(); err != nil {
		log.Fatalf("sweep cut short after %d points: %v", solved, err)
	}
	fmt.Printf("\n%d points solved, %d deduplicated by the analytic cache\n", solved, cached)
}
