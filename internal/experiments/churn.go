package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
)

func init() {
	register("churn", "Lane lifecycle: membership churn under a diurnal rate schedule", runChurn)
}

// ChurnSpec translates a Scale into the churn serving spec: the
// attached scenario when it carries a churn schedule, otherwise the
// built-in "churn" scenario (a group-parked fleet that scales out for
// a diurnal peak and drains back after it).
func ChurnSpec(s Scale) (serve.Spec, error) {
	sp := s.Scenario
	horizon := s.Runtime
	if sp == nil || sp.Fleet == nil || len(sp.Fleet.Churn) == 0 {
		sp = scenario.BuiltIn("churn")
		horizon = sp.Runtime.D()
	}
	return sp.ServeSpec(horizon)
}

func runChurn(s Scale, w io.Writer) error {
	spec, err := ChurnSpec(s)
	if err != nil {
		return err
	}
	rep, err := serve.Run(spec)
	if err != nil {
		return err
	}

	section(w, "Lane lifecycle: membership churn under a diurnal rate schedule")
	fmt.Fprintf(w, "fleet: %d devices in %d groups across %d shards, horizon %v\n",
		rep.Devices, rep.Groups, rep.Shards, spec.Horizon)
	fmt.Fprintf(w, "schedule: %d rate steps, %d churn events\n", len(spec.Rates), len(spec.Churn))
	fmt.Fprintf(w, "churn: %d groups admitted, %d retired\n", rep.ChurnAdds, rep.ChurnRemoves)
	fmt.Fprintf(w, "recovery: warm-up p50 %v max %v, %s\n",
		rep.WarmupP50.Round(time.Millisecond), rep.WarmupMax.Round(time.Millisecond), drainStr(rep))
	fmt.Fprintf(w, "requests: offered %d, completed %d, rejected %d   throughput %.0f MB/s\n",
		rep.Offered, rep.Completed, rep.Rejected, rep.ThroughputMBps)
	fmt.Fprintf(w, "power: avg %.1f W   latency p50 %v  p99 %v\n",
		rep.AvgPowerW, rep.LatP50.Round(time.Microsecond), rep.LatP99.Round(time.Microsecond))
	if spec.Meso {
		fmt.Fprintf(w, "meso: %d dehydrations / %d rehydrations, %d parked periods, drift %s (worst %.4f)\n",
			rep.MesoDehydrations, rep.MesoRehydrations, rep.MesoParkedPeriods,
			okStr(rep.MesoDriftOK), rep.MesoWorstDriftFrac)
	}
	fmt.Fprintf(w, "invariants: cap %s (worst window %.1f W), tracking %s\n",
		okStr(rep.CapOK), rep.CapWorstW, okStr(rep.TrackOK))

	if rep.ChurnAdds == 0 {
		return fmt.Errorf("churn: no replica group was ever admitted mid-run")
	}
	if rep.ChurnRemoves == 0 {
		return fmt.Errorf("churn: no replica group was ever drained and retired")
	}
	if rep.ChurnDrains != rep.ChurnDrainsBegun {
		return fmt.Errorf("churn: %d of %d resident drains never completed", rep.ChurnDrainsBegun-rep.ChurnDrains, rep.ChurnDrainsBegun)
	}
	if rep.DrainMax >= spec.Horizon {
		return fmt.Errorf("churn: drain recovery %v never completed inside the horizon %v", rep.DrainMax, spec.Horizon)
	}
	if !rep.CapOK {
		return fmt.Errorf("churn: sliding-window power-cap invariant fired: worst window %.1f W", rep.CapWorstW)
	}
	if !rep.TrackOK {
		return fmt.Errorf("churn: achieved power missed budget by %.1f W", rep.WorstOverW)
	}
	if spec.Meso && !rep.MesoDriftOK {
		return fmt.Errorf("churn: mesoscale drift probe fired (worst %.4f)", rep.MesoWorstDriftFrac)
	}
	return nil
}

// drainStr renders drain recovery over the mechanistic drains only; a
// run whose removals were all virtual has no resident drain to report,
// which must read differently from a real 0s drain, and a resident
// drain that never completed shows against the drains begun.
func drainStr(rep *serve.Report) string {
	if rep.ChurnDrainsBegun == 0 {
		return "drain n/a (analytic)"
	}
	return fmt.Sprintf("drain p50 %v max %v over %d of %d resident begun",
		rep.DrainP50.Round(time.Millisecond), rep.DrainMax.Round(time.Millisecond), rep.ChurnDrains, rep.ChurnDrainsBegun)
}
