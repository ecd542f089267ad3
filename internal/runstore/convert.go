package runstore

import (
	"chats/internal/htm"
	"chats/internal/machine"
	"chats/internal/telemetry"
)

// The adapters in this file are the only runstore code that knows about
// the simulator's own types; the storage engine itself is plain
// stdlib + JSON so the on-disk format stays self-describing.

// FromStats builds the Record for one completed run: the RunStats
// counters flattened into the Counters/ByCause maps plus the cost
// fields measured around the run. system is the canonical kind string
// ("baseline", "chats", ...) rather than RunStats.System's display name,
// so store keys line up with chats-bench cell names. Meta, Source and
// ID are stamped later (Store.Recorder / Store.Append).
func FromStats(st machine.RunStats, system string, seed uint64, config, size string, wallclockNS int64, allocs uint64) Record {
	return Record{
		Seed:        seed,
		System:      system,
		Workload:    st.Workload,
		Config:      config,
		Size:        size,
		SimCycles:   st.Cycles,
		WallclockNS: wallclockNS,
		Allocs:      allocs,
		Counters: map[string]uint64{
			"commits":              st.Commits,
			"aborts":               st.Aborts,
			"fallbacks":            st.Fallbacks,
			"power_acqs":           st.PowerAcqs,
			"conflicted_committed": st.ConflictedCommitted,
			"conflicted_aborted":   st.ConflictedAborted,
			"forwarder_committed":  st.ForwarderCommitted,
			"forwarder_aborted":    st.ForwarderAborted,
			"consumer_committed":   st.ConsumerCommitted,
			"consumer_aborted":     st.ConsumerAborted,
			"spec_resps_sent":      st.SpecRespsSent,
			"spec_resps_consumed":  st.SpecRespsConsumed,
			"validations":          st.Validations,
			"validations_ok":       st.ValidationsOK,
			"flits":                st.Flits,
			"messages":             st.Messages,
			"l1_hits":              st.L1Hits,
			"l1_misses":            st.L1Misses,
			"nack_retries":         st.NackRetries,
			"faults_injected":      st.FaultsInjected,
			"fallback_stm_commits": st.FallbackSTMCommits,
			"fallback_stm_retries": st.FallbackSTMRetries,
			"fallback_elide_exts":  st.FallbackElideExtends,
			"fallback_body_cycles": st.FallbackBodyCycles,
			"cm_waits":             st.CMWaits,
			"cm_hot_nacks":         st.CMHotNacks,
		},
		ByCause: byCause(st),
	}
}

// StampWaves records the producing run's engine counters
// (machine.WaveStats): fired events, waves and serial events.
// Scheduling structure, not simulation results — never compared by the
// equivalence oracles.
func (r *Record) StampWaves(events, waves, serial uint64) {
	r.WaveEvents = events
	r.Waves = waves
	r.SerialEvents = serial
}

// byCause names the non-zero abort causes (cause 0 is "none").
func byCause(st machine.RunStats) map[string]uint64 {
	var m map[string]uint64
	for c := 1; c < htm.NumCauses; c++ {
		if st.ByCause[c] == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]uint64)
		}
		m[htm.AbortCause(c).String()] = st.ByCause[c]
	}
	return m
}

// AttachTelemetry folds a run's collector into the record: every
// registered histogram and cycle-windowed series, the top-k hot lines
// and the chain-topology summary — the same reports the CLI renders as
// text, persisted for the dashboard drill-downs.
func AttachTelemetry(r *Record, col *telemetry.Collector, topK int) {
	for _, h := range col.Reg.AllHistograms() {
		r.Hists = append(r.Hists, Hist{
			Name:   h.Name,
			Bounds: append([]uint64(nil), h.Bounds...),
			Counts: append([]uint64(nil), h.Counts...),
			N:      h.N,
			Sum:    h.Sum,
			Max:    h.Max,
		})
	}
	for _, sr := range col.Reg.AllSeries() {
		r.Series = append(r.Series, TimeSeries{
			Name:   sr.Name,
			Window: sr.Window,
			Bins:   append([]uint64(nil), sr.Bins...),
		})
	}
	for _, h := range col.HotLines(topK) {
		r.HotLines = append(r.HotLines, HotLine{
			Line:          h.Line.String(),
			Conflicts:     h.Conflicts,
			Aborts:        h.Aborts,
			Forwards:      h.Forwards,
			Consumes:      h.Consumes,
			Validations:   h.Validations,
			ValidationsOK: h.ValidationsOK,
			Nacks:         h.Nacks,
			NackRetries:   h.NackRetries,
		})
	}
	ch := col.Chain()
	r.Chain = &Chain{
		Edges:       ch.Edges,
		MaxDepth:    ch.MaxDepth,
		StallNacks:  ch.StallNacks,
		CycleAborts: ch.CycleAborts,
	}
}
