package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"chats/internal/runstore"
)

// fingerprint identifies the host and build a number was measured on;
// a number is only comparable next to an equal fingerprint.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Timestamp  string `json:"timestamp_utc"`
}

// hostFingerprint records the host. GOMAXPROCS is read, never set: it
// decides where the runtime schedules the simulator's goroutine
// handoffs.
func hostFingerprint() fingerprint {
	meta := runstore.NowMeta()
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  meta.GoVersion,
		Commit:     meta.Commit,
		Timestamp:  meta.TimestampUTC,
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// passDigest hashes a pass's per-cell digests in cell order: equal
// digests on two commits mean bit-identical simulated results.
func passDigest(cells []cellResult) string {
	h := sha256.New()
	for _, c := range cells {
		h.Write(c.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
