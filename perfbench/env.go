package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// recordEnv returns the environment every result is recorded with; the
// workload adds its input sizes.
func recordEnv(b *bench) map[string]any {
	return map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"seconds":     b.measure.Seconds(),
		"trace":       b.trace,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"commit":      commit(),
		"source_hash": sourceHash("."),
	}
}

// cpuTimes returns the jiffies the kernel has counted for all CPUs, in
// total and stolen by the hypervisor (0, 0 where /proc/stat is missing).
func cpuTimes() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealShare is the share of CPU time the hypervisor took from this
// machine since the given cpuTimes reading: a run that lost much of it
// measured the host, not the program.
func stealShare(total0, steal0 uint64) float64 {
	total, steal := cpuTimes()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// cpuModel reads the processor name the kernel reports.
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

// commit is the VCS revision the binary was built from, when it was built
// inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git work tree; see source_hash)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash digests the Go sources and module files under root, in path
// order, so a result names the code it measured even outside git. Build
// outputs and hidden directories are skipped.
func sourceHash(root string) string {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
