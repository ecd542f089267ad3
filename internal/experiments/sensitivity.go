package experiments

import (
	"fmt"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/stats"
	"chats/internal/workloads"
)

// Fig8 reproduces the forwarding-eligibility study: CHATS and PCHATS
// with R/W, W and Rrestrict/W block selection, normalized to CHATS with
// R/W (as in the paper).
func (s *Suite) Fig8() (*stats.Table, error) {
	type variant struct {
		col    string
		kind   core.Kind
		mode   htm.ForwardMode
		traits *htm.Traits
	}
	variants := []variant{
		{col: "chats-R/W", kind: core.KindCHATS, mode: htm.ForwardRW},
		{col: "chats-W", kind: core.KindCHATS, mode: htm.ForwardW},
		{col: "chats-Rr/W", kind: core.KindCHATS, mode: htm.ForwardRrestrictW},
		{col: "pchats-R/W", kind: core.KindPCHATS, mode: htm.ForwardRW},
		{col: "pchats-W", kind: core.KindPCHATS, mode: htm.ForwardW},
		{col: "pchats-Rr/W", kind: core.KindPCHATS, mode: htm.ForwardRrestrictW},
	}
	cols := make([]string, len(variants))
	var cells []cell
	for i := range variants {
		v := &variants[i]
		cols[i] = v.col
		p, err := core.New(v.kind)
		if err != nil {
			return nil, err
		}
		tr := p.Traits()
		tr.ForwardMode = v.mode
		v.traits = &tr
		for _, b := range workloads.AllNames() {
			cells = append(cells, cell{kind: v.kind, traits: v.traits, bench: b})
		}
	}
	if err := s.prime(cells); err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 8: blocks eligible for forwarding (normalized to CHATS R/W)",
		workloads.AllNames(), cols)
	for _, b := range workloads.AllNames() {
		var ref uint64
		for i, v := range variants {
			st := s.stat(v.kind, v.traits, b)
			if i == 0 {
				ref = st.Cycles
			}
			t.Set(b, v.col, stats.Ratio(st.Cycles, ref))
		}
	}
	t.AddMeanRows(workloads.STAMPNames())
	return t, nil
}

// Fig9Retries is the sweep of Fig. 9.
var Fig9Retries = []int{1, 2, 4, 6, 8, 16, 32, 64}

// Fig9 reproduces the retry-threshold sensitivity: per system, execution
// time for each retry budget, normalized to the baseline at its Table II
// default (6 retries).
func (s *Suite) Fig9(systems []core.Kind) ([]*stats.Table, error) {
	if systems == nil {
		systems = []core.Kind{core.KindBaseline, core.KindCHATS, core.KindPower, core.KindPCHATS}
	}
	cols := make([]string, len(Fig9Retries))
	for i, r := range Fig9Retries {
		cols[i] = fmt.Sprintf("r=%d", r)
	}
	// One traits object per (system, retry budget), shared by priming and
	// the table loops so the memo keys line up.
	traits := make(map[core.Kind][]*htm.Traits, len(systems))
	var cells []cell
	for _, b := range workloads.AllNames() {
		cells = append(cells, cell{kind: core.KindBaseline, bench: b})
	}
	for _, k := range systems {
		p, err := core.New(k)
		if err != nil {
			return nil, err
		}
		for _, r := range Fig9Retries {
			tr := p.Traits()
			tr.Retries = r
			trp := &tr
			traits[k] = append(traits[k], trp)
			for _, b := range workloads.AllNames() {
				cells = append(cells, cell{kind: k, traits: trp, bench: b})
			}
		}
	}
	if err := s.prime(cells); err != nil {
		return nil, err
	}
	var tables []*stats.Table
	for _, k := range systems {
		t := stats.NewTable(fmt.Sprintf("Fig. 9: retry sensitivity, %s (normalized to baseline r=6)", k),
			workloads.AllNames(), cols)
		for _, b := range workloads.AllNames() {
			base := s.stat(core.KindBaseline, nil, b)
			for i := range Fig9Retries {
				t.Set(b, cols[i], stats.Ratio(s.stat(k, traits[k][i], b).Cycles, base.Cycles))
			}
		}
		t.AddMeanRows(workloads.STAMPNames())
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig. 10 sweep axes.
var (
	Fig10VSBSizes  = []int{1, 2, 4, 8, 16, 32}
	Fig10Intervals = []uint64{50, 100, 200, 400}
)

// Fig10 reproduces the VSB-size × validation-interval heatmaps for
// CHATS: geometric-mean execution time and aborts over the STAMP suite,
// normalized to the bottom-left square (VSB=1, interval=50 cycles).
func (s *Suite) Fig10() ([]*stats.Table, error) {
	rows := make([]string, len(Fig10VSBSizes))
	for i, v := range Fig10VSBSizes {
		rows[i] = fmt.Sprintf("vsb=%d", v)
	}
	cols := make([]string, len(Fig10Intervals))
	for i, iv := range Fig10Intervals {
		cols[i] = fmt.Sprintf("val=%d", iv)
	}
	timeT := stats.NewTable("Fig. 10 (left): execution time vs VSB size and validation interval", rows, cols)
	timeT.Note = "geomean over STAMP, normalized to vsb=1/val=50"
	abortT := stats.NewTable("Fig. 10 (right): aborts vs VSB size and validation interval", rows, cols)
	abortT.Note = "geomean over STAMP, normalized to vsb=1/val=50"

	// One traits object per (vsb, interval) square, shared by priming and
	// the heatmap loop so the memo keys line up.
	p, err := core.New(core.KindCHATS)
	if err != nil {
		return nil, err
	}
	traits := make(map[[2]uint64]*htm.Traits)
	var cells []cell
	for _, vsb := range Fig10VSBSizes {
		for _, iv := range Fig10Intervals {
			tr := p.Traits()
			tr.VSBSize = vsb
			tr.ValidationInterval = iv
			trp := &tr
			traits[[2]uint64{uint64(vsb), iv}] = trp
			for _, b := range workloads.STAMPNames() {
				cells = append(cells, cell{kind: core.KindCHATS, traits: trp, bench: b})
			}
		}
	}
	if err := s.prime(cells); err != nil {
		return nil, err
	}

	square := func(vsb int, iv uint64) (float64, float64) {
		var times, aborts []float64
		for _, b := range workloads.STAMPNames() {
			st := s.stat(core.KindCHATS, traits[[2]uint64{uint64(vsb), iv}], b)
			times = append(times, float64(st.Cycles))
			aborts = append(aborts, float64(st.Aborts)+1) // +1 keeps geomean defined
		}
		return stats.GeoMean(times), stats.GeoMean(aborts)
	}

	refT, refA := square(1, 50)
	for _, vsb := range Fig10VSBSizes {
		for _, iv := range Fig10Intervals {
			ct, ca := square(vsb, iv)
			timeT.Set(fmt.Sprintf("vsb=%d", vsb), fmt.Sprintf("val=%d", iv), ct/refT)
			abortT.Set(fmt.Sprintf("vsb=%d", vsb), fmt.Sprintf("val=%d", iv), ca/refA)
		}
	}
	return []*stats.Table{timeT, abortT}, nil
}

// Fig11 reproduces the comparison against LEVC-BE-Idealized.
func (s *Suite) Fig11() (*stats.Table, error) {
	return s.normTimeTable("Fig. 11: CHATS vs LEVC-BE-Idealized",
		[]core.Kind{core.KindBaseline, core.KindLEVC, core.KindCHATS, core.KindPCHATS})
}
