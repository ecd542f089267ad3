package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"chats"
	"chats/internal/core"
	"chats/internal/experiments"
	"chats/internal/machine"
	"chats/internal/runstore"
	"chats/internal/sweep"
	"chats/internal/telemetry"
	"chats/internal/workloads"
)

// sweepRequest is the POST /api/sweep body. Empty lists mean "all".
type sweepRequest struct {
	Systems   []string `json:"systems"`
	Workloads []string `json:"workloads"`
	Size      string   `json:"size"`
	Seed      uint64   `json:"seed"`
	// Telemetry attaches a collector to every cell so the stored records
	// carry histogram/hot-line/chain drill-downs (slower, bigger records).
	Telemetry bool `json:"telemetry"`
}

// job is the public view of one sweep execution. Done/State mutate
// while the grid runs; the jobManager's mutex guards them.
type job struct {
	ID         int      `json:"id"`
	State      string   `json:"state"` // "running", "done", "failed"
	Systems    []string `json:"systems"`
	Workloads  []string `json:"workloads"`
	Size       string   `json:"size"`
	Seed       uint64   `json:"seed"`
	Telemetry  bool     `json:"telemetry"`
	Done       int      `json:"done"`
	Total      int      `json:"total"`
	Error      string   `json:"error,omitempty"`
	StartedUTC string   `json:"started_utc"`
}

// jobManager validates, launches and tracks sweep jobs. Each job fans
// its (system × workload) grid over the shared sweep pool, appends one
// record per cell to the store, and publishes progress/run/job events
// to the SSE broker as the grid executes.
type jobManager struct {
	store   *runstore.Store
	broker  *broker
	workers int

	mu     sync.Mutex
	nextID int
	jobs   []*job
	wg     sync.WaitGroup
}

func newJobManager(store *runstore.Store, b *broker, workers int) *jobManager {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &jobManager{store: store, broker: b, workers: workers, nextID: 1}
}

// Start validates the request upfront — a typo must fail the POST, not
// cell N of a half-finished grid — then launches the grid on a
// background goroutine and returns the new job immediately.
func (m *jobManager) Start(req sweepRequest) (job, error) {
	if len(req.Systems) == 0 {
		req.Systems = core.KindNames()
	}
	kinds := make([]chats.SystemKind, 0, len(req.Systems))
	for _, s := range req.Systems {
		k, err := chats.ParseSystem(s)
		if err != nil {
			return job{}, err
		}
		kinds = append(kinds, k)
	}
	if len(req.Workloads) == 0 {
		req.Workloads = workloads.Names()
	}
	if err := workloads.Check(req.Workloads); err != nil {
		return job{}, err
	}
	if req.Size == "" {
		req.Size = "tiny"
	}
	sz, err := workloads.ParseSize(req.Size)
	if err != nil {
		return job{}, err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}

	var cells []experiments.Cell
	for _, k := range kinds {
		for _, w := range req.Workloads {
			c := experiments.Cell{System: k, Bench: w, Size: sz, Machine: machine.DefaultConfig()}
			c.Machine.Seed = req.Seed
			cells = append(cells, c)
		}
	}

	m.mu.Lock()
	j := &job{
		ID:         m.nextID,
		State:      "running",
		Systems:    req.Systems,
		Workloads:  req.Workloads,
		Size:       req.Size,
		Seed:       req.Seed,
		Telemetry:  req.Telemetry,
		Total:      len(cells),
		StartedUTC: time.Now().UTC().Format(time.RFC3339),
	}
	m.nextID++
	m.jobs = append(m.jobs, j)
	snap := *j
	m.mu.Unlock()
	m.broker.Publish("job", snap)

	meta := runstore.NowMeta()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := sweep.Map(m.workers, len(cells), m.progress(j), func(i int) error {
			c := cells[i]
			var col *telemetry.Collector
			if req.Telemetry {
				// Cap the raw event buffer: the drill-downs only need the
				// aggregates, which keep counting past the cap.
				col = telemetry.New(c.Machine.Cores, telemetry.Options{MaxEvents: 1})
				c.Tracers = []machine.Tracer{col}
			}
			_, rec, err := experiments.RunCell(c)
			if err != nil {
				return err
			}
			if col != nil {
				runstore.AttachTelemetry(&rec, col, 16)
			}
			rec.Meta = meta
			rec.Source = "serve"
			id, err := m.store.Append(rec)
			if err != nil {
				return err
			}
			rec.ID = id
			m.broker.Publish("run", summarize(rec))
			return nil
		})
		m.mu.Lock()
		if err != nil {
			j.State, j.Error = "failed", err.Error()
		} else {
			j.State = "done"
		}
		snap := *j
		m.mu.Unlock()
		m.broker.Publish("job", snap)
	}()
	return snap, nil
}

// progress returns the sweep.Progress hook for one job: bump the
// counter under the manager lock and publish the tick.
func (m *jobManager) progress(j *job) sweep.Progress {
	return func(done, total int) {
		m.mu.Lock()
		j.Done = done
		m.mu.Unlock()
		m.broker.Publish("progress", map[string]int{"job": j.ID, "done": done, "total": total})
	}
}

// Snapshot returns every job, newest first.
func (m *jobManager) Snapshot() []job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]job, len(m.jobs))
	for i, j := range m.jobs {
		out[i] = *j
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Wait blocks until every launched job has finished — shutdown calls it
// before sealing the store so no in-flight append is dropped.
func (m *jobManager) Wait() { m.wg.Wait() }
