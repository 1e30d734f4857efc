package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/sim"
)

// InstanceName is the canonical name of fleet device i of a profile —
// the key planning models, governors, and fault scripts address it by.
func InstanceName(profile string, i int) string {
	return fmt.Sprintf("%s#%05d", profile, i)
}

// ParseInstanceName is InstanceName's inverse: it splits a fleet
// instance name into its profile and device index, rejecting anything
// that InstanceName could not have produced. Validation layers use it
// to check fault-script targets in O(1) instead of enumerating every
// instance name of the fleet.
func ParseInstanceName(name string) (profile string, i int, err error) {
	profile, idx, ok := strings.Cut(name, "#")
	if !ok || profile == "" || len(idx) < 5 {
		return "", 0, fmt.Errorf("instance name %q is not profile#index (e.g. %q)", name, InstanceName("SSD2", 0))
	}
	i, err = strconv.Atoi(idx)
	if err != nil || i < 0 || InstanceName(profile, i) != name {
		return "", 0, fmt.Errorf("instance name %q is not profile#index (e.g. %q)", name, InstanceName("SSD2", 0))
	}
	return profile, i, nil
}

// profileOf is the catalog profile of fleet device i in a normalized
// spec: replica groups round-robin over the profile mix.
func (s *Spec) profileOf(i int) string {
	return s.Profiles[(i/s.Replicas)%len(s.Profiles)]
}

// scriptedFaults indexes a spec's fault scripts by instance name.
func scriptedFaults(sp *Spec) map[string][]fault.Window {
	if len(sp.Faults) == 0 {
		return nil
	}
	m := make(map[string][]fault.Window, len(sp.Faults))
	for _, df := range sp.Faults {
		m[df.Device] = append(m[df.Device], df.Windows...)
	}
	return m
}

// laneStreams are the RNG streams one lane is built from: each
// replica's device stream (nil for a fitted profile, which draws none),
// the lane's offset stream, and its arrival stream.
type laneStreams struct {
	devs      []*sim.RNG
	lane, arr *sim.RNG
}

// drawLaneStreams derives replica group g's device and lane streams
// from root, in the order building the lane has always consumed them.
// The arrival stream is the caller's: build-time lanes draw theirs only
// after every lane's device and lane streams.
func drawLaneStreams(sp *Spec, root *sim.RNG, pi, g int) *laneStreams {
	profile := sp.Profiles[pi]
	st := &laneStreams{devs: make([]*sim.RNG, sp.Replicas)}
	if sp.Fitted[profile] == nil {
		for rep := range st.devs {
			st.devs[rep] = root.Stream(InstanceName(profile, g*sp.Replicas+rep))
		}
	}
	st.lane = root.Stream(fmt.Sprintf("lane%05d", g))
	return st
}

// baseDevice builds the unwrapped device model of one fleet instance:
// a fitted surrogate when the spec maps the profile, else the catalog
// simulator on its own stream ds.
func baseDevice(sp *Spec, eng *sim.Engine, ds *sim.RNG, profile, name string) (device.Device, error) {
	if m := sp.Fitted[profile]; m != nil {
		fd, err := calib.NewDevice(eng, m, name)
		if err != nil {
			return nil, fmt.Errorf("fitted model for %s: %w", name, err)
		}
		return fd, nil
	}
	d, ok := catalog.NewNamed(profile, name, eng, ds)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	return d, nil
}

// drawFault resolves one instance's fault outcome from its dedicated
// stream ds: the scripted windows when the spec names the instance,
// else the FaultFrac probabilistic draw. planGroups runs this pass for
// every member — virtual ones included — before deciding which to
// materialize, consuming exactly the draws the instance owns; whether
// the member then becomes a device never perturbs another's faults, and
// a script on one instance never perturbs another's draw.
func drawFault(sp *Spec, ds *sim.RNG, scripted map[string][]fault.Window, name string) ([]fault.Window, bool) {
	if wins := scripted[name]; len(wins) > 0 {
		return wins, true
	}
	if sp.FaultFrac > 0 && ds.Float64() < sp.FaultFrac {
		kind := fault.Dropout
		if ds.Float64() < 0.5 {
			kind = fault.PowerCmdFail
		}
		start := time.Duration(float64(sp.Horizon) * (0.2 + 0.4*ds.Float64()))
		dur := time.Duration(float64(sp.Horizon) * (0.1 + 0.15*ds.Float64()))
		return []fault.Window{{Kind: kind, Start: start, Dur: dur}}, true
	}
	return nil, false
}
