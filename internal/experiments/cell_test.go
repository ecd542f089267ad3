package experiments

import (
	"testing"

	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/machine"
	"chats/internal/workloads"
)

// Records of runs that differ in cores, knobs or fault plan must land
// under distinct keys, while a default run keeps the historical "".
func TestRecordKeysNameWholeConfig(t *testing.T) {
	plan := faults.SoakPlan()
	configs := map[string]func(*machine.Config){
		"default":  func(*machine.Config) {},
		"-cores 8": func(c *machine.Config) { c.Cores = 8 },
		"-fallback stm -hotline 4": func(c *machine.Config) {
			c.Fallback = machine.FallbackConfig{Kind: machine.FallbackSTM}
			c.HotLine = 4
		},
		"-faults soak": func(c *machine.Config) { c.Faults = &plan },
	}
	seen := map[string]string{}
	for name, set := range configs {
		c := Cell{System: core.KindCHATS, Bench: "cadd", Size: workloads.Tiny, Machine: machine.DefaultConfig()}
		set(&c.Machine)
		st, rec, err := RunCell(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.System != "chats" || rec.Workload != "cadd" || rec.Size != "tiny" || rec.SimCycles != st.Cycles {
			t.Errorf("%s: record %+v does not describe the cell", name, rec)
		}
		if rec.Allocs == 0 {
			t.Errorf("%s: record carries no allocation count", name)
		}
		if other, dup := seen[rec.Config]; dup {
			t.Errorf("%s and %s share the record key %q", name, other, rec.Config)
		}
		seen[rec.Config] = name
		if (name == "default") != (rec.Config == "") {
			t.Errorf("%s: Config = %q", name, rec.Config)
		}
	}
}
