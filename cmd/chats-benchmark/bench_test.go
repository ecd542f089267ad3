package main

import "testing"

// The layer microbenchmarks as go test benchmarks. Each runs the same
// loop the traced run times, so both report the same cost per
// operation:
//
//	go test -run '^$' -bench . -benchtime 2s
func benchMicro(b *testing.B, metric string) {
	var m *microBench
	for i := range micros {
		if micros[i].metric == metric {
			m = &micros[i]
		}
	}
	if m == nil {
		b.Fatalf("no microbenchmark %s", metric)
	}
	loop, err := m.prepare()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := loop(b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkScheduleFire(b *testing.B)   { benchMicro(b, "sim.schedule_fire_ns") }
func BenchmarkThreadHandoff(b *testing.B)  { benchMicro(b, "machine.handoff_ns") }
func BenchmarkEmptyTx(b *testing.B)        { benchMicro(b, "machine.empty_tx_ns") }
func BenchmarkTx4(b *testing.B)            { benchMicro(b, "machine.tx4_ns") }
func BenchmarkDirGetS(b *testing.B)        { benchMicro(b, "coherence.gets_ns") }
func BenchmarkDirGetXInv(b *testing.B)     { benchMicro(b, "coherence.getx_inv_ns") }
func BenchmarkNetSend(b *testing.B)        { benchMicro(b, "network.send_ns") }
func BenchmarkL1Lookup(b *testing.B)       { benchMicro(b, "cache.lookup_ns") }
func BenchmarkL1InsertEvict(b *testing.B)  { benchMicro(b, "cache.insert_evict_ns") }
func BenchmarkGangInvalidate(b *testing.B) { benchMicro(b, "cache.gang_invalidate_ns") }
func BenchmarkMemReadWord(b *testing.B)    { benchMicro(b, "mem.read_word_ns") }
func BenchmarkVSB(b *testing.B)            { benchMicro(b, "htm.vsb_ns") }
func BenchmarkGenerate(b *testing.B)       { benchMicro(b, "randprog.generate_us") }
func BenchmarkDifftestCheck(b *testing.B)  { benchMicro(b, "difftest.ms_per_program") }

func BenchmarkMachineNew(b *testing.B) {
	b.Run("c16", func(b *testing.B) { benchMicro(b, "machine.new_c16_ms") })
	b.Run("c256", func(b *testing.B) { benchMicro(b, "machine.new_c256_ms") })
}

// TestMicrosAreLayerMetrics: every microbenchmark reports a per-layer
// catalogue metric in a known unit.
func TestMicrosAreLayerMetrics(t *testing.T) {
	layer := map[string]bool{}
	for _, d := range perLayer {
		layer[d.Name] = true
	}
	for _, m := range micros {
		if !layer[m.metric] {
			t.Errorf("microbenchmark %s is not a per-layer metric", m.metric)
		}
		if _, ok := unitNS[m.unit]; !ok {
			t.Errorf("microbenchmark %s has unit %q", m.metric, m.unit)
		}
	}
}
