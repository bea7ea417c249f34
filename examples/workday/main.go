// Workday planning: the paper calibrated against uptime averaged "over two
// working days", but real owner activity has a day/night cycle. This
// example uses the phased-station extension to answer an operational
// question the averaged model cannot: when should a cycle-stealing job
// launch, and what does launching early cost?
package main

import (
	"fmt"
	"log"

	"feasim"
)

func main() {
	const (
		ownerBurst = 10.0
		dayUtil    = 0.25 // 8 busy office hours
		nightUtil  = 0.02 // 16 quiet hours
		dayLen     = 8 * 3600.0
		nightLen   = 16 * 3600.0
		demand     = 3 * 3600.0 // a 3-hour task per workstation
		runs       = 400
	)

	sched, err := feasim.Workday(dayUtil, nightUtil, dayLen, nightLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner schedule: %.0fh day at %.0f%%, %.0fh night at %.0f%% (mean %.1f%%)\n",
		dayLen/3600, dayUtil*100, nightLen/3600, nightUtil*100, sched.MeanUtilization()*100)
	fmt.Printf("task: %.0fh of compute per workstation\n\n", demand/3600)

	// Sweep launch times through the day (hour 0 = office opening).
	fmt.Printf("%-12s %-16s %-14s\n", "launch", "mean task (h)", "stretch")
	st, err := feasim.NewPhasedStation("ws", sched, ownerBurst, feasim.NewStream(42))
	if err != nil {
		log.Fatal(err)
	}
	type point struct {
		hour    float64
		stretch float64
	}
	var bestPt, worstPt point
	for _, hour := range []float64{0, 4, 7, 8, 12, 20, 23} {
		var sum feasim.Summary
		for i := 0; i < runs; i++ {
			sum.Add(st.RunTaskAt(hour*3600, demand).Elapsed)
		}
		stretch := sum.Mean() / demand
		fmt.Printf("%-12s %-16.2f %-14.3f\n",
			fmt.Sprintf("hour %02.0f", hour), sum.Mean()/3600, stretch)
		pt := point{hour, stretch}
		if bestPt.stretch == 0 || pt.stretch < bestPt.stretch {
			bestPt = pt
		}
		if pt.stretch > worstPt.stretch {
			worstPt = pt
		}
	}
	fmt.Printf("\nbest launch: hour %02.0f (stretch %.3f); worst: hour %02.0f (stretch %.3f)\n",
		bestPt.hour, bestPt.stretch, worstPt.hour, worstPt.stretch)

	// Compare against what the averaged (paper-style) model predicts: a
	// single utilization equal to the day/night mean. The average is a poor
	// guide for short jobs — it undercharges daytime runs and overcharges
	// night runs.
	p, err := feasim.ParamsFromUtilization(demand, 1, ownerBurst, sched.MeanUtilization())
	if err != nil {
		log.Fatal(err)
	}
	r, err := feasim.Analyze(p.Fleet())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("averaged-utilization model predicts stretch %.3f for every launch time\n",
		r.ETask/demand)
	fmt.Println("→ launching at office close instead of office open saves",
		fmt.Sprintf("%.0f minutes on a 3-hour task.", (worstPt.stretch-bestPt.stretch)*demand/60))
}
