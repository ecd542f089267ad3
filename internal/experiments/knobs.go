package experiments

import (
	"flag"

	"chats/internal/faults"
	"chats/internal/machine"
)

// Knobs are the machine-knob flags every front end shares: -fallback,
// -hotline, -backoff and -faults.
type Knobs struct {
	fallback, backoff, faults *string
	hotLine                   *int
}

// RegisterKnobs defines the knob flags on fs.
func RegisterKnobs(fs *flag.FlagSet) Knobs {
	return Knobs{
		fallback: fs.String("fallback", "", "fallback path: lock (default), stm[:locks=N], elide[:budget=N,refill=N]"),
		hotLine:  fs.Int("hotline", 0, "NACK transactional probes for a line once its recent conflict aborts reach N (0 = off)"),
		backoff:  fs.String("backoff", "", "post-abort backoff variant: exp (default), linear, jitter, each with optional :cap=N"),
		faults:   fs.String("faults", "", "fault-injection spec for every simulation, e.g. 'spurious:p=0.01;jitter:p=0.1,max=8' ('soak' = the canonical all-kinds plan)"),
	}
}

// Apply parses the knob flags into cfg.
func (k Knobs) Apply(cfg *machine.Config) (err error) {
	if *k.fallback != "" {
		if cfg.Fallback, err = machine.ParseFallback(*k.fallback); err != nil {
			return err
		}
	}
	cfg.HotLine = *k.hotLine
	if *k.backoff != "" {
		if cfg.Backoff, err = machine.ParseBackoff(*k.backoff); err != nil {
			return err
		}
	}
	if *k.faults != "" {
		plan, err := faults.ParseFlag(*k.faults)
		if err != nil {
			return err
		}
		cfg.Faults = &plan
	}
	return nil
}
