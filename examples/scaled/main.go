// Scaled-problem study (paper Section 3.2): under memory-bounded scaleup
// the per-task demand — and so the task ratio — stays constant as
// workstations are added, which is why cycle stealing shines for scaled
// problems. This example sweeps system size at several owner utilizations
// and renders the paper's Figure 9 as ASCII, then quantifies the scaleup.
package main

import (
	"context"
	"fmt"
	"log"

	"feasim"
)

func main() {
	const (
		taskDemand = 100.0 // T per workstation (J = T*W)
		ownerBurst = 10.0
	)
	utils := []float64{0.01, 0.05, 0.1, 0.2}
	ws := []int{1, 2, 5, 10, 20, 40, 60, 80, 100}

	fig := feasim.Figure{
		ID:     "scaled",
		Title:  "Scaled problem: response time vs system size (T fixed at 100)",
		XLabel: "workstations",
		YLabel: "E[job time]",
	}
	fmt.Printf("%-8s", "W")
	for _, u := range utils {
		fmt.Printf("  util=%-6.2f", u)
	}
	fmt.Println()

	solver := feasim.NewAnalyticSolver()
	curves := make(map[float64][]feasim.ScaledResultPoint)
	for _, u := range utils {
		q := feasim.ScaledQuery{T: taskDemand, O: ownerBurst, Util: u, Ws: ws}
		a, err := solver.Answer(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		pts := a.(feasim.ScaledAnswer).Points
		curves[u] = pts
		s := feasim.Series{Name: fmt.Sprintf("util=%g", u)}
		for _, pt := range pts {
			s.X = append(s.X, float64(pt.W))
			s.Y = append(s.Y, pt.EJob)
		}
		fig.Series = append(fig.Series, s)
	}
	for i, w := range ws {
		fmt.Printf("%-8d", w)
		for _, u := range utils {
			fmt.Printf("  %-11.2f", curves[u][i].EJob)
		}
		fmt.Println()
	}

	art, err := feasim.RenderASCII(fig, 90, 22)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(art)

	// The paper's takeaway: 100x the work for a modest response-time cost.
	fmt.Println("scaling 1 → 100 workstations (100x the total work):")
	for _, u := range utils {
		last := curves[u][len(ws)-1]
		fmt.Printf("  util %4.0f%%: +%.0f%% response time, scaleup %.1f of %d\n",
			u*100, last.IncreaseVsDedicated*100,
			float64(last.W)*curves[u][0].EJob/last.EJob, last.W)
	}
}
