package core

import (
	"fmt"
	"strings"

	"chats/internal/htm"
)

// Kind names one of the evaluated HTM systems.
type Kind string

const (
	KindBaseline Kind = "baseline"
	KindNaiveRS  Kind = "naive-rs"
	KindCHATS    Kind = "chats"
	KindPower    Kind = "power"
	KindPCHATS   Kind = "pchats"
	KindLEVC     Kind = "levc-be-ideal"
)

// Kinds lists every system in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{KindBaseline, KindNaiveRS, KindCHATS, KindPower, KindPCHATS, KindLEVC}
}

// New constructs the named system with its Table II default
// configuration.
func New(k Kind) (htm.Policy, error) {
	switch k {
	case KindBaseline:
		return NewBaseline(), nil
	case KindNaiveRS:
		return NewNaiveRS(), nil
	case KindCHATS:
		return NewCHATS(), nil
	case KindPower:
		return NewPower(), nil
	case KindPCHATS:
		return NewPCHATS(), nil
	case KindLEVC:
		return NewLEVCIdeal(), nil
	}
	return nil, fmt.Errorf("core: unknown system %q (known: %v)", k, Kinds())
}

// NewWith constructs the named system with overridden traits, for the
// sensitivity analyses.
func NewWith(k Kind, t htm.Traits) (htm.Policy, error) {
	switch k {
	case KindBaseline:
		return NewBaselineWith(t), nil
	case KindNaiveRS:
		return NewNaiveRSWith(t), nil
	case KindCHATS:
		return NewCHATSWith(t), nil
	case KindPower:
		return NewPowerWith(t), nil
	case KindPCHATS:
		return NewPCHATSWith(t), nil
	case KindLEVC:
		return NewLEVCIdealWith(t), nil
	}
	return nil, fmt.Errorf("core: unknown system %q", k)
}

// ParseList parses a comma-separated system list. An empty list gives
// nil, so each caller keeps its own default.
func ParseList(list string) ([]Kind, error) {
	if list == "" {
		return nil, nil
	}
	var ks []Kind
	for _, s := range strings.Split(list, ",") {
		k := Kind(strings.TrimSpace(s))
		if _, err := New(k); err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// KindNames returns the system names in the paper's presentation order,
// for CLI help text and lists.
func KindNames() []string {
	ks := Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = string(k)
	}
	return names
}
