package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/phys"
	"cmppower/internal/splash"
	"cmppower/internal/thermal"
)

// runDTMDomains is the multi-island counterpart of runDTM: one governor
// per DVFS domain, each tripping on the hottest sensor among its own
// blocks and throttling only its island's ladder. Shared uncore blocks
// (L2, bus) are assigned to the lead domain's sensor group. Wall-clock
// stretch follows the lead island's governor — the engine's reference
// clock — which is the same interval-granularity approximation the
// chip-wide controller makes; per-island throttling additionally scales
// each island's block power at its own current point via the hetero
// meter path. Stats are summed across islands; FinalPoint reports the
// lead island's governor.
func (r *Rig) runDTMDomains(ctx context.Context, app splash.App, n int, req dvfs.OperatingPoint, runCycles float64, seed uint64) (*DTMStats, error) {
	dc := *r.DTM
	if dc == (DTMConfig{}) {
		dc = DefaultDTMConfig()
	}
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	cfg := r.runConfig(ctx, app, n, req, seed)
	cfg.SampleCycles = runCycles / float64(dc.Intervals)
	if cfg.SampleCycles < 1 {
		cfg.SampleCycles = 1
	}
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("experiment: DTM run of %s/%d produced no samples", app.Name, n)
	}

	var sensors thermal.SensorReader
	var transitions dvfs.TransitionFault
	if r.Faults != nil {
		sensors, transitions = r.Faults, r.Faults
	}
	nd := r.Domains.Len()
	lead := r.leadDomain()
	reqD := make([]dvfs.OperatingPoint, nd)
	governors := make([]*dvfs.Setting, nd)
	for di := 0; di < nd; di++ {
		reqD[di] = r.Domains.PointFor(r.Table, di, req)
		governors[di] = &dvfs.Setting{Point: reqD[di], Nominal: reqD[di]}
	}
	// blockDom maps every floorplan block to the island whose sensor
	// group (and supply) it belongs to; shared blocks ride with the lead.
	blockDom := make([]int, len(r.FP.Blocks))
	for i, b := range r.FP.Blocks {
		if b.Core >= 0 && b.Core < r.TotalCores {
			blockDom[i] = r.Domains.DomainOf(b.Core)
		} else {
			blockDom[i] = lead
		}
	}
	active := make([]bool, r.TotalCores)
	for i := 0; i < n && i < r.TotalCores; i++ {
		active[i] = true
	}

	state := r.TM.NewTransientState()
	st := &DTMStats{FinalPoint: reqD[lead]}
	corePoints := make([]dvfs.OperatingPoint, r.TotalCores)
	var totalSec, nominalSec, throttledSec float64
	for _, s := range res.Samples {
		leadCur := governors[lead].Point
		cycles := s.EndCycle - s.StartCycle
		realDt := cycles / leadCur.Freq
		nominalSec += cycles / reqD[lead].Freq
		totalSec += realDt
		throttled := false
		for di := 0; di < nd; di++ {
			if governors[di].Point.Freq < reqD[di].Freq {
				throttled = true
			}
		}
		if throttled {
			throttledSec += realDt
		}
		for c := 0; c < r.TotalCores; c++ {
			corePoints[c] = governors[r.Domains.DomainOf(c)].Point
		}
		dyn, err := r.Meter.DynamicBlockPowerHetero(r.FP, s.Activity, realDt, int64(cycles)+1, leadCur, corePoints, active)
		if err != nil {
			return nil, err
		}
		total := make([]float64, len(dyn))
		for i := range dyn {
			v := governors[blockDom[i]].Point.Volt
			frac := r.Meter.StaticFraction(v, phys.Clamp(state.Block[i], phys.AmbientTempC, 120))
			total[i] = dyn[i] * (1 + frac)
		}
		if err := r.TM.TransientStep(state, total, realDt*dc.TimeDilation); err != nil {
			return nil, err
		}
		if truePeak := thermal.Peak(state.Block); truePeak > st.PeakTempC {
			st.PeakTempC = truePeak
		}
		sensed := thermal.Sense(state.Block, sensors)
		for di := 0; di < nd; di++ {
			var reading float64
			for i := range sensed {
				if blockDom[i] == di && sensed[i] > reading {
					reading = sensed[i]
				}
			}
			if reading > st.PeakReadingC {
				st.PeakReadingC = reading
			}
			cur := governors[di].Point
			switch {
			case reading >= dc.TripC:
				st.Emergencies++
				target := stepDownFrom(r.Table, cur.Freq, dc.StepDown)
				if target.Freq >= cur.Freq {
					st.FloorHit = true
					break
				}
				if _, ok := governors[di].Request(target, transitions); ok {
					st.Transitions++
				} else {
					st.FailedTransitions++
				}
			case reading < dc.TripC-dc.HysteresisC && cur.Freq < reqD[di].Freq:
				target := r.Table.StepAbove(cur.Freq * (1 + 1e-9))
				if target.Freq > reqD[di].Freq {
					target = reqD[di]
				}
				if _, ok := governors[di].Request(target, transitions); ok {
					st.Transitions++
				} else {
					st.FailedTransitions++
				}
			}
		}
	}
	if totalSec > 0 {
		st.ThrottleResidency = throttledSec / totalSec
	}
	if nominalSec > 0 {
		st.PerfLossFrac = totalSec/nominalSec - 1
	}
	st.FinalPoint = governors[lead].Point
	return st, nil
}
