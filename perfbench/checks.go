package main

import (
	"fmt"

	"wattio/internal/scenario"
)

// checkRun returns every way one run broke the output checks: an error
// or panic, a failed cap or tracking probe, an inconsistent request
// ledger, or — for full-horizon runs — a broken exercise guard.
func checkRun(w *workload, sp *scenario.Spec, r *result) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	rep := r.rep
	var bad []string
	if !rep.CapOK {
		bad = append(bad, "power-cap probe failed")
	}
	if !rep.TrackOK {
		bad = append(bad, "budget tracking failed")
	}
	if rep.Offered != rep.Admitted+rep.Rejected {
		bad = append(bad, fmt.Sprintf("offered %d != admitted %d + rejected %d", rep.Offered, rep.Admitted, rep.Rejected))
	}
	if rep.Completed > rep.Admitted {
		bad = append(bad, fmt.Sprintf("completed %d > admitted %d", rep.Completed, rep.Admitted))
	}
	if !r.setup {
		bad = append(bad, w.guards(sp, r)...)
	}
	return bad
}

// checkDigests compares every run's report digest with the first run
// of the same scenario and phase, and returns the runs that differ.
func checkDigests(results []*result) map[*result]string {
	type key struct {
		seed  uint64
		setup bool
	}
	first := make(map[key]*result)
	bad := make(map[*result]string)
	for _, r := range results {
		if r.err != nil {
			continue
		}
		k := key{r.seed, r.setup}
		f, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		if r.digest != f.digest {
			bad[r] = fmt.Sprintf("report digest %.12s differs from an earlier run's %.12s", r.digest, f.digest)
		}
	}
	return bad
}
