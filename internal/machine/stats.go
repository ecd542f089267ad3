package machine

import "chats/internal/htm"

// RunStats aggregates everything the paper's figures report about one
// simulation run.
type RunStats struct {
	System    string
	Workload  string
	Cycles    uint64 // execution time (Figs. 1, 4, 8, 9, 10, 11)
	Commits   uint64 // committed transactions
	Aborts    uint64 // aborted transaction attempts (Fig. 5)
	ByCause   [htm.NumCauses]uint64
	Fallbacks uint64 // global-lock acquisitions
	PowerAcqs uint64 // power-token acquisitions

	// Fig. 6: executed transactions that conflicted / forwarded data,
	// split by how the attempt finished.
	ConflictedCommitted uint64
	ConflictedAborted   uint64
	ForwarderCommitted  uint64
	ForwarderAborted    uint64
	ConsumerCommitted   uint64
	ConsumerAborted     uint64

	// Forwarding machinery.
	SpecRespsSent     uint64 // producer-side forwardings
	SpecRespsConsumed uint64 // accepted into a VSB
	Validations       uint64 // validation requests issued
	ValidationsOK     uint64 // entries validated (real permissions, match)

	// Fig. 7: interconnect usage.
	Flits    uint64
	Messages uint64

	// Memory system.
	L1Hits   uint64
	L1Misses uint64
	DirFwds  uint64
	DirInvs  uint64

	// Conflict-resolution breakdown (diagnostics).
	ProbeConflicts uint64 // conflicting probes seen at responders
	DecAbort       uint64
	DecSpec        uint64
	DecNack        uint64
	SpecDropStale  uint64 // SpecResp arrived after the consumer died
	SpecDropVSB    uint64 // SpecResp dropped: VSB full, access retried
	SpecDropReject uint64 // consumer-side policy rejection (cycle race)
	NackRetries    uint64

	// Fallback-path breakdown. FallbackBodyCycles sums, over all
	// cores, the cycles each core spent inside an open fallback
	// section (STM body start / lock acquisition through exit), so
	// FallbackBodyCycles/Cycles is the average fallback concurrency:
	// ≤ 1 when fallbacks serialize behind the global lock, > 1 when
	// the STM path overlaps non-conflicting software transactions.
	FallbackSTMCommits   uint64 // STM fallbacks committed optimistically
	FallbackSTMRetries   uint64 // STM body re-executions (validation/budget)
	FallbackElideExtends uint64 // lock acquisitions converted to extra attempts
	FallbackBodyCycles   uint64

	// Contention-manager counts: backoff waits after an abort, and
	// probes NACKed by the hot-line override.
	CMWaits    uint64
	CMHotNacks uint64

	// FaultsInjected counts every injected fault across all kinds (zero
	// without a fault plan). Its presence in the comparable struct makes
	// the -j1/-jN determinism tests cover the fault schedule too.
	FaultsInjected uint64
}

// addShard folds a node's RunStats shard into the machine totals. Only
// the counters nodes increment locally are folded; everything else
// (Cycles, network, memory-system, fault and power counters) is owned
// by the machine and collected separately.
func (s *RunStats) addShard(o *RunStats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	for i := range s.ByCause {
		s.ByCause[i] += o.ByCause[i]
	}
	s.Fallbacks += o.Fallbacks
	s.ConflictedCommitted += o.ConflictedCommitted
	s.ConflictedAborted += o.ConflictedAborted
	s.ForwarderCommitted += o.ForwarderCommitted
	s.ForwarderAborted += o.ForwarderAborted
	s.ConsumerCommitted += o.ConsumerCommitted
	s.ConsumerAborted += o.ConsumerAborted
	s.SpecRespsSent += o.SpecRespsSent
	s.SpecRespsConsumed += o.SpecRespsConsumed
	s.Validations += o.Validations
	s.ValidationsOK += o.ValidationsOK
	s.ProbeConflicts += o.ProbeConflicts
	s.DecAbort += o.DecAbort
	s.DecSpec += o.DecSpec
	s.DecNack += o.DecNack
	s.SpecDropStale += o.SpecDropStale
	s.SpecDropVSB += o.SpecDropVSB
	s.SpecDropReject += o.SpecDropReject
	s.NackRetries += o.NackRetries
	s.FallbackSTMCommits += o.FallbackSTMCommits
	s.FallbackSTMRetries += o.FallbackSTMRetries
	s.FallbackElideExtends += o.FallbackElideExtends
	s.FallbackBodyCycles += o.FallbackBodyCycles
	s.CMWaits += o.CMWaits
	s.CMHotNacks += o.CMHotNacks
}

// AbortRate returns aborts per executed transaction attempt.
func (s RunStats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}
